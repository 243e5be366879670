package runtime

import "testing"

func TestCompletedFuture(t *testing.T) {
	f := CompletedFuture()
	if !f.Done() {
		t.Fatal("CompletedFuture should be done immediately")
	}
	f.Wait() // must not block
}

func TestChargeHelpersNoOpOnUntimedPE(t *testing.T) {
	// A PE that does not implement GemmTimer must pass through ChargeGemm
	// untouched.
	ChargeGemm(nil, 8, 8, 8)
}
