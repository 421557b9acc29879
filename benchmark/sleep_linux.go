package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The Go timer wakes sleepers through the
// network poller with millisecond resolution, which would add about half a
// millisecond of generator lateness to every paced request; nanosleep on
// the goroutine's thread wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
