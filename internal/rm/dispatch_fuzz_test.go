package rm

import (
	"fmt"
	"testing"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// FuzzDispatchReplay replays a generated tape through a FIFO TaskManager and
// through the full-scan reference dispatcher and requires every submission
// to resolve identically. The inputs pick the tape: its seed, how many
// shapes the submissions draw from (0 draws each freely), and the op mix —
// the low bits weight node churn and withdrawals, the high bit adds the
// mid-run strategy switches and oracle arming.
func FuzzDispatchReplay(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(7))
	f.Add(int64(3), uint8(5), uint8(0x87))
	f.Add(int64(42), uint8(1), uint8(14))
	f.Fuzz(func(t *testing.T, seed int64, shapes, mix uint8) {
		m := tapeMix{
			ops:      200,
			window:   100,
			churn:    2 * int(mix%3),
			withdraw: int(mix / 3 % 5),
			shapes:   int(shapes % 16),
			switches: mix&0x80 != 0,
		}
		tape := genTapeMix(randx.New(seed), 15, m)
		fifo := func(*sim.Engine) Strategy { return FIFO{} }
		checkReplay(t, fmt.Sprintf("fuzz/%+v", m), gpuHetero, fifo, false, seed, tape)
	})
}
