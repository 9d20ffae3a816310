package ldpc

import (
	"fmt"
	"math"
	"math/bits"
)

// EncodeIntoReference is the original bit-serial encoder, retained as
// the ground truth the word-packed fast path is property-tested against.
func (c *Code) EncodeIntoReference(msg, cw []uint8) {
	if len(msg) != c.K {
		panic(fmt.Sprintf("ldpc: message length %d, want %d", len(msg), c.K))
	}
	if len(cw) != c.N {
		panic(fmt.Sprintf("ldpc: codeword buffer length %d, want %d", len(cw), c.N))
	}
	for i, pos := range c.dataPos {
		cw[pos] = msg[i] & 1
	}
	for i, row := range c.encRows {
		var parity uint8
		for w, word := range row {
			if word == 0 {
				continue
			}
			base := w * 64
			for word != 0 {
				b := base + bits.TrailingZeros64(word)
				parity ^= msg[b] & 1
				word &= word - 1
			}
		}
		cw[c.parityPos[i]] = parity
	}
}

// DecodeBPReference is the original flooded float64 min-sum decoder,
// retained as the ground truth the fast path is property-tested
// against. It allocates its own working memory and performs a full
// syndrome sweep per iteration; production paths use DecodeBP.
func (c *Code) DecodeBPReference(llr []float64, maxIter int) DecodeResult {
	if len(llr) != c.N {
		panic("ldpc: LLR length mismatch")
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	v2c := make([]float64, c.edges)
	c2v := make([]float64, c.edges)
	hard := make([]uint8, c.N)
	for ci, vars := range c.checkVars {
		off := c.edgeOff[ci]
		for e, v := range vars {
			v2c[off+int32(e)] = llr[v]
		}
	}
	decide := func() {
		for v := 0; v < c.N; v++ {
			sum := llr[v]
			for _, ei := range c.varEdge[c.varOff[v]:c.varOff[v+1]] {
				sum += c2v[ei]
			}
			if sum < 0 {
				hard[v] = 1
			} else {
				hard[v] = 0
			}
		}
	}
	decide()
	if c.SyndromeOK(hard) {
		return DecodeResult{Bits: hard, OK: true, Iterations: 0}
	}

	for iter := 1; iter <= maxIter; iter++ {
		// Check node update (normalized min-sum).
		for ci := range c.checkVars {
			off, end := c.edgeOff[ci], c.edgeOff[ci+1]
			in := v2c[off:end]
			out := c2v[off:end]
			// Find min and second-min of |in|, and the sign product.
			min1, min2 := math.Inf(1), math.Inf(1)
			min1Idx := -1
			signProd := 1.0
			for e, m := range in {
				a := math.Abs(m)
				if a < min1 {
					min2 = min1
					min1 = a
					min1Idx = e
				} else if a < min2 {
					min2 = a
				}
				if m < 0 {
					signProd = -signProd
				}
			}
			for e, m := range in {
				mag := min1
				if e == min1Idx {
					mag = min2
				}
				s := signProd
				if m < 0 {
					s = -s
				}
				out[e] = minSumScale * s * mag
			}
		}
		// Variable node update.
		for v := 0; v < c.N; v++ {
			total := llr[v]
			edges := c.varEdge[c.varOff[v]:c.varOff[v+1]]
			for _, ei := range edges {
				total += c2v[ei]
			}
			for _, ei := range edges {
				v2c[ei] = total - c2v[ei]
			}
		}
		decide()
		if c.SyndromeOK(hard) {
			return DecodeResult{Bits: hard, OK: true, Iterations: iter}
		}
	}
	return DecodeResult{Bits: hard, OK: false, Iterations: maxIter}
}
