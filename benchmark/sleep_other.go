//go:build !linux

package main

import "time"

// sleepUntil blocks until t (see sleep_linux.go for why Linux differs).
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
