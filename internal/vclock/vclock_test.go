package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestChargeAccumulates(t *testing.T) {
	var c Clock
	c.Charge(10, time.Millisecond)
	c.Charge(5, 2*time.Millisecond)
	if got := c.Charged(); got != 20*time.Millisecond {
		t.Fatalf("Charged = %v, want 20ms", got)
	}
	if c.Measured() != 0 {
		t.Fatalf("Measured should be 0, got %v", c.Measured())
	}
	if got := c.Total(); got != 20*time.Millisecond {
		t.Fatalf("Total = %v", got)
	}
}

func TestRunMeasures(t *testing.T) {
	var c Clock
	c.Run(func() { time.Sleep(5 * time.Millisecond) })
	if c.Measured() < 4*time.Millisecond {
		t.Fatalf("Measured = %v, want ≥ 4ms", c.Measured())
	}
	if c.Charged() != 0 {
		t.Fatalf("Charged should be 0")
	}
}

func TestAddMeasuredAndTotal(t *testing.T) {
	var c Clock
	c.AddMeasured(3 * time.Second)
	c.Charge(2, time.Second)
	if got := c.Total(); got != 5*time.Second {
		t.Fatalf("Total = %v, want 5s", got)
	}
}

func TestConcurrentCharges(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Charge(1, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Charged(); got != 16000*time.Microsecond {
		t.Fatalf("Charged = %v", got)
	}
}
