package ldpc

import "math"

// DecodeResult reports the outcome of a soft decode.
type DecodeResult struct {
	Bits       []uint8 // hard-decided codeword (length N)
	OK         bool    // all parity checks satisfied
	Iterations int     // decoder iterations actually run (0 = clean input)
}

// minSumScale is the normalization factor for min-sum BP; 0.75 is the
// standard choice that closes most of the gap to full sum-product.
const minSumScale = 0.75

const minSumScale32 = float32(minSumScale)

// DecodeBP runs normalized min-sum belief propagation over channel LLRs
// (positive LLR means "bit is 0", the usual convention). It stops early
// once the syndrome is satisfied — including before the first iteration
// when the hard decision is already a codeword (Iterations=0) — and
// returns the hard decision either way; OK distinguishes success from
// decoder failure (which the caller treats as a sector erasure handled
// by network coding, per §5).
func (c *Code) DecodeBP(llr []float64, maxIter int) DecodeResult {
	sc := c.getScratch()
	res := c.decodeBP(llr, maxIter, sc)
	bits := make([]uint8, c.N)
	copy(bits, res.Bits)
	res.Bits = bits
	c.putScratch(sc)
	return res
}

// decodeBP is the fast path: serial-schedule ("layered") normalized
// min-sum on float32 state. Checks are processed in fixed ascending
// order; each check reads the current posteriors, lazily reconstructs
// its inbound messages as total[v]-c2v[e], and writes the refreshed
// posterior back immediately, so later checks in the same iteration see
// it — which is why it converges in roughly half the iterations of the
// flooded reference. The only persistent edge state is c2v (float32,
// half the memory traffic of the old float64 pair), walked strictly
// sequentially in edge order. The syndrome is maintained incrementally
// off hard-decision deltas: a posterior sign change toggles the
// variable's ColWeight checks and an unsat counter, so termination
// needs no full syndrome sweep. The serial schedule and fixed check
// order keep the result a pure function of the input LLRs —
// worker-count independent, per the DESIGN.md §8 determinism contract.
//
// The returned Bits alias sc.hard and are only valid until the scratch
// is reused or released.
func (c *Code) decodeBP(llr []float64, maxIter int, sc *bpScratch) DecodeResult {
	if len(llr) != c.N {
		panic("ldpc: LLR length mismatch")
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	total, hard, synd, m := sc.total, sc.hard, sc.synd, sc.mbuf
	for v := 0; v < c.N; v++ {
		x := float32(llr[v])
		total[v] = x
		if x < 0 {
			hard[v] = 1
		} else {
			hard[v] = 0
		}
	}
	c2v := sc.c2v[:c.edges]
	for i := range c2v {
		c2v[i] = 0
	}
	unsat := c.syndromeHard(hard, synd)
	if unsat == 0 {
		return DecodeResult{Bits: hard, OK: true, Iterations: 0}
	}
	inf := float32(math.Inf(1))
	for iter := 1; iter <= maxIter; iter++ {
		for ci, vars := range c.checkVars {
			off := int(c.edgeOff[ci])
			min1, min2 := inf, inf
			min1Idx := -1
			neg := false
			for e, v := range vars {
				x := total[v] - c2v[off+e]
				m[e] = x
				a := x
				if a < 0 {
					a = -a
					neg = !neg
				}
				if a < min1 {
					min2, min1, min1Idx = min1, a, e
				} else if a < min2 {
					min2 = a
				}
			}
			for e, v := range vars {
				mag := min1
				if e == min1Idx {
					mag = min2
				}
				nm := minSumScale32 * mag
				if neg != (m[e] < 0) {
					nm = -nm
				}
				t := m[e] + nm
				c2v[off+e] = nm
				total[v] = t
				var nh uint8
				if t < 0 {
					nh = 1
				}
				if nh != hard[v] {
					hard[v] = nh
					for _, cj := range c.varChecks[v] {
						if synd[cj] == 0 {
							synd[cj] = 1
							unsat++
						} else {
							synd[cj] = 0
							unsat--
						}
					}
				}
			}
		}
		if unsat == 0 {
			return DecodeResult{Bits: hard, OK: true, Iterations: iter}
		}
	}
	return DecodeResult{Bits: hard, OK: false, Iterations: maxIter}
}

// DecodeBitFlip runs Gallager-B style hard-decision bit flipping: each
// iteration flips the bits involved in the most unsatisfied checks. It
// is far cheaper than BP and corrects light error patterns; the decode
// stack uses it as a first pass before escalating to BP. The codeword
// is kept packed in machine words throughout — only the returned Bits
// are allocated.
func (c *Code) DecodeBitFlip(received []uint8, maxIter int) DecodeResult {
	if len(received) != c.N {
		panic("ldpc: codeword length mismatch")
	}
	if maxIter <= 0 {
		maxIter = 20
	}
	sc := c.getScratch()
	PackBitsInto(received, sc.cwWords)
	unsat := c.syndromePacked(sc.cwWords, sc.synd)
	iters, ok := 0, unsat == 0
	if !ok {
		iters, ok = c.bitFlip(sc, maxIter, unsat)
	}
	bits := make([]uint8, c.N)
	UnpackBitsInto(sc.cwWords, bits)
	c.putScratch(sc)
	return DecodeResult{Bits: bits, OK: ok, Iterations: iters}
}

// bitFlip runs Gallager-B on the packed codeword sc.cwWords in place.
// sc.synd and unsat must describe cwWords on entry; both track every
// flip incrementally (a flip toggles the variable's ColWeight checks),
// so no iteration re-derives the syndrome. The set of flipped
// variables per round — everything touching the maximum number of
// unsatisfied checks — is order-independent, keeping the decoder a pure
// function of its input. sc.cnt is zeroed on exit via the touched list.
func (c *Code) bitFlip(sc *bpScratch, maxIter, unsat int) (int, bool) {
	cw, synd, cnt := sc.cwWords, sc.synd, sc.cnt
	touched := sc.touched[:0]
	iters := 0
	for unsat > 0 && iters < maxIter {
		iters++
		touched = touched[:0]
		maxCnt := uint8(0)
		for ci, s := range synd {
			if s == 0 {
				continue
			}
			for _, v := range c.checkVars[ci] {
				if cnt[v] == 0 {
					touched = append(touched, v)
				}
				cnt[v]++
				if cnt[v] > maxCnt {
					maxCnt = cnt[v]
				}
			}
		}
		for _, v := range touched {
			if cnt[v] == maxCnt {
				cw[v>>6] ^= 1 << (uint(v) & 63)
				for _, cj := range c.varChecks[v] {
					if synd[cj] == 0 {
						synd[cj] = 1
						unsat++
					} else {
						synd[cj] = 0
						unsat--
					}
				}
			}
			cnt[v] = 0
		}
	}
	sc.touched = touched[:0]
	return iters, unsat == 0
}

// hardPackLLR packs the sign bits of llr into cw: bit v set means the
// hard decision for variable v is 1. Branchless — the sign bit is
// lifted straight out of the float representation, since a compare on
// a ~50/50 random sign stream mispredicts half the time.
func (c *Code) hardPackLLR(llr []float64, cw []uint64) {
	llr = llr[:c.N]
	w := 0
	for ; (w+1)*64 <= len(llr); w++ {
		chunk := llr[w*64 : w*64+64]
		var word uint64
		for j, x := range chunk {
			word |= math.Float64bits(x) >> 63 << uint(j)
		}
		cw[w] = word
	}
	if w*64 < len(llr) {
		var word uint64
		for j, x := range llr[w*64:] {
			word |= math.Float64bits(x) >> 63 << uint(j)
		}
		cw[w] = word
	}
}

// extractWordsInto copies the K message bits out of a packed codeword.
func (c *Code) extractWordsInto(cw []uint64, msg []uint8) {
	for i, pos := range c.dataPos {
		msg[i] = uint8(cw[pos>>6] >> (uint(pos) & 63) & 1)
	}
}

// HardLLR converts hard bits into saturated LLRs for feeding a hard
// decision into the BP decoder (e.g. when only a binarized read is
// available). confidence is the magnitude to assign.
func HardLLR(bits []uint8, confidence float64) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b == 0 {
			out[i] = confidence
		} else {
			out[i] = -confidence
		}
	}
	return out
}
