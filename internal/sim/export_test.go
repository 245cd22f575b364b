package sim

// MsgSize sizes msg as the runner does for every send, into the buffer it
// reuses.
func (r *Runner) MsgSize(msg Message) int { return msgSize(&r.sizeBuf, msg) }
