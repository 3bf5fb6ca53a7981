package stm

// AccessSetLen returns the number of entries in th's access set: the chunks
// the running attempt wrote, or read other than drained.
func AccessSetLen(th *Thread) int { return th.desc.Set.Len() }
