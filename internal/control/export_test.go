package control

// ReadPrivately makes every loop s runs compute its round readings on its
// own and read its declared inputs from the store, as loops built without a
// Service do: the baseline shared readings are compared with.
func ReadPrivately(s *Service) { s.view.private = true }
