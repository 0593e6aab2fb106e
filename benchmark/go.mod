module ocep/benchmark

go 1.22

require ocep v0.0.0

replace ocep => ../
