package stm

// AccessSetLen returns the number of entries in th's access set: the chunks
// the running attempt wrote.
func AccessSetLen(th *Thread) int { return th.set.Len() }
