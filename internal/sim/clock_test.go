package sim

import (
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock must start at 0")
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(22 * time.Microsecond)
	if got := c.Now(); got != 5*time.Millisecond+22*time.Microsecond {
		t.Errorf("Now() = %v", got)
	}
}

func TestClockRejectsNegative(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance must panic")
		}
	}()
	c.Advance(-time.Nanosecond)
}

func TestClockAdvanceToRejectsPast(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past must panic")
		}
	}()
	c.AdvanceTo(time.Millisecond)
}
