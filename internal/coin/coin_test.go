package coin

import "testing"

func TestPRFMatching(t *testing.T) {
	a := NewPRF(99, 10)
	b := NewPRF(99, 10)
	for w := 1; w <= 100; w++ {
		if a.Leader(w) != b.Leader(w) {
			t.Fatalf("wave %d: coins disagree", w)
		}
	}
}

func TestPRFRange(t *testing.T) {
	c := NewPRF(7, 13)
	for w := 1; w <= 500; w++ {
		l := c.Leader(w)
		if l < 0 || int(l) >= 13 {
			t.Fatalf("wave %d: leader %d out of range", w, l)
		}
	}
}

func TestPRFApproximatelyUniform(t *testing.T) {
	n := 10
	c := NewPRF(123, n)
	counts := make([]int, n)
	waves := 20000
	for w := 1; w <= waves; w++ {
		counts[c.Leader(w)]++
	}
	exp := float64(waves) / float64(n)
	for i, got := range counts {
		// Allow ±25% of expectation — generous but catches modulo bias
		// or stuck outputs.
		if float64(got) < exp*0.75 || float64(got) > exp*1.25 {
			t.Errorf("process %d elected %d times, expected ~%.0f", i, got, exp)
		}
	}
}

func TestPRFSeedSensitivity(t *testing.T) {
	a := NewPRF(1, 10)
	b := NewPRF(2, 10)
	same := 0
	for w := 1; w <= 200; w++ {
		if a.Leader(w) == b.Leader(w) {
			same++
		}
	}
	if same > 60 { // expect ~20 collisions for n=10
		t.Errorf("different seeds agree on %d/200 waves", same)
	}
}

func TestNewPRFPanicsOnZeroN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPRF(1, 0)
}
