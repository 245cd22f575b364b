package sim

// MsgSize sizes msg as the runner does for every send, into the buffer it
// reuses.
func (r *Runner) MsgSize(msg Message) int {
	n, _ := msgSize(&r.sizeBuf, msg)
	return n
}

// SetDecodeCopies turns decoded-copy delivery on or off for the runs that
// start after it (see decodeCopies).
func SetDecodeCopies(on bool) { decodeCopies = on }
