package poet

// Abort is abort, for the external tests.
func (s *Server) Abort() { s.abort() }
