// Secure inference data path: an end-to-end functional demonstration of
// what SecureLoop schedules. A producer layer writes its ofmap to
// simulated untrusted DRAM under the scheduler's optimal AuthBlock
// assignment — every block AES-GCM encrypted and tagged with a
// counter/address seed (paper Figure 2). The consumer layer then reads its
// ifmap tiles back: every touched AuthBlock is fetched, its tag verified,
// and the plaintext decrypted. The measured traffic matches the analytic
// model exactly, and a simulated RowHammer-style bit flip in DRAM is caught
// by tag verification.
package main

import (
	"context"
	"fmt"
	"os"

	"secureloop/internal/authblock"
	"secureloop/internal/num"
	"secureloop/internal/trace"
)

func main() {
	// A small cross-layer tensor handoff: 16-channel 28x28 ofmap produced
	// in 8x14x14 tiles, consumed through 16x16 windows stepping by 14
	// (2-row halo) — the Section 3.2 geometry at test size.
	p := authblock.ProducerGrid{
		C: 16, H: 28, W: 28,
		TileC: 8, TileH: 14, TileW: 14,
		WritesPerTile: 1,
	}
	c := authblock.ConsumerGrid{
		TileC: 4,
		WinH:  16, WinW: 16,
		StepH: 14, StepW: 14,
		OffH: -1, OffW: -1,
		CountC: 4, CountH: 2, CountW: 2,
		FetchesPerTile: 1,
	}
	par := authblock.Params{WordBits: 8, HashBits: 64}

	opt, err := authblock.OptimalCtx(context.Background(), p, c, par)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("optimal AuthBlock assignment: %s, u=%d elements\n",
		opt.Assignment.Orientation, opt.Assignment.U)
	fmt.Printf("predicted extra traffic: hash %d bits, redundant %d bits\n\n",
		opt.Costs.HashBitsTotal(), opt.Costs.RedundantBits)

	key := []byte("secureloop-key16")
	st, err := trace.NewSecureTensor(p, opt.Assignment, key, par.HashBits/8)
	if err != nil {
		fatal(err)
	}

	// Producer: generate and write every ofmap tile (encrypt + tag).
	ref := make([]byte, num.MulInt(num.MulInt(p.C, p.H), p.W))
	for i := range ref {
		ref[i] = byte(3*i + 1)
	}
	nc, nh, nw := p.Counts()
	for ti := 0; ti < nc; ti++ {
		for tj := 0; tj < nh; tj++ {
			for tk := 0; tk < nw; tk++ {
				if err := writeTile(st, p, ref, ti, tj, tk); err != nil {
					fatal(err)
				}
			}
		}
	}
	fmt.Printf("producer wrote %d tiles: %d data elements, %d tags\n",
		p.NumTiles(), st.DataWriteElems, st.TagWrites)

	// Consumer: read every ifmap window (fetch blocks, verify, decrypt).
	st.TagReads, st.RedundantElems, st.DataReadElems = 0, 0, 0
	for ic := 0; ic < c.CountC; ic++ {
		for ih := 0; ih < c.CountH; ih++ {
			for iw := 0; iw < c.CountW; iw++ {
				c0 := num.MulInt(ic, c.TileC)
				c1 := min(c0+c.TileC, p.C)
				rBase := c.OffH + num.MulInt(ih, c.StepH)
				wBase := c.OffW + num.MulInt(iw, c.StepW)
				r0, r1 := clamp(rBase, p.H), clamp(rBase+c.WinH, p.H)
				w0, w1 := clamp(wBase, p.W), clamp(wBase+c.WinW, p.W)
				got, err := st.ReadRegion(c0, c1, r0, r1, w0, w1)
				if err != nil {
					fatal(err)
				}
				// Verify a sample element against the reference tensor.
				if got[0] != ref[(c0*p.H+r0)*p.W+w0] {
					fatal(fmt.Errorf("decrypted data mismatch"))
				}
			}
		}
	}
	fmt.Printf("consumer read %d windows: %d data elements (%d redundant), %d tag fetches\n",
		c.NumTiles(), st.DataReadElems, st.RedundantElems, st.TagReads)

	// The functional path must match the analytic prediction bit for bit.
	if st.RedundantElems*int64(par.WordBits) != opt.Costs.RedundantBits {
		fatal(fmt.Errorf("redundant traffic mismatch: measured %d bits, predicted %d",
			st.RedundantElems*int64(par.WordBits), opt.Costs.RedundantBits))
	}
	if st.TagReads*int64(par.HashBits) != opt.Costs.HashReadBits {
		fatal(fmt.Errorf("tag traffic mismatch"))
	}
	fmt.Println("analytic model matches the functional data path exactly ✓")

	// Integrity: corrupt one bit of off-chip ciphertext and re-read.
	st.Tamper()
	fmt.Println("\nflipping one DRAM bit (simulated data-corruption attack)...")
	if _, err := st.ReadRegion(0, p.C, 0, p.H, 0, p.W); err != nil {
		fmt.Printf("tag verification rejected the read: %v ✓\n", err)
	} else {
		fatal(fmt.Errorf("tampering was NOT detected"))
	}
}

func writeTile(st *trace.SecureTensor, p authblock.ProducerGrid, ref []byte, ti, tj, tk int) error {
	c0, r0, w0 := num.MulInt(ti, p.TileC), num.MulInt(tj, p.TileH), num.MulInt(tk, p.TileW)
	tc, th, tw := min(p.TileC, p.C-c0), min(p.TileH, p.H-r0), min(p.TileW, p.W-w0)
	tile := make([]byte, num.MulInt(num.MulInt(tc, th), tw))
	for cc := 0; cc < tc; cc++ {
		for rr := 0; rr < th; rr++ {
			for ww := 0; ww < tw; ww++ {
				tile[(cc*th+rr)*tw+ww] = ref[((c0+cc)*p.H+r0+rr)*p.W+w0+ww]
			}
		}
	}
	return st.WriteTile(ti, tj, tk, tile)
}

func clamp(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
