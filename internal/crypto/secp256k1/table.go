package secp256k1

// gTable is the precomputed base-point table, built once at package
// init from the authoritative big.Int parameters:
// gTable[w][d-1] = d · 256^w · G for d ∈ 1..128. A scalar below N/2,
// read as 32 signed 8-bit digits in [−127, 128], picks one entry per
// window — negated for a negative digit — so ScalarBaseMult is at
// most 32 mixed additions with no doublings at all.
//
// Memory: 32·128 affine points · 64 bytes = 256 KiB, built in a few
// milliseconds: 127 mixed additions and one batch normalization per
// window.
var gTable [32][128]affinePoint

func init() {
	initScalarConstants()
	buildBaseTables()
	initGLV()
}

func buildBaseTables() {
	var base affinePoint // 256^w·G
	base.x.setBig(Gx)
	base.y.setBig(Gy)
	// Every entry stays finite: d·256^w ≤ 2^7·2^248 < N.
	var jacs [128]jacPoint
	for w := range gTable {
		jacs[0].setAffine(&base)
		for d := 1; d < len(jacs); d++ {
			jacs[d].addMixed(&jacs[d-1], &base, nil)
		}
		batchToAffine(gTable[w][:], jacs[:])
		var next jacPoint
		next.double(&jacs[len(jacs)-1])
		base, _ = next.toAffine()
	}
}

// scalarBaseMultJac computes k·G by walking the windowed table. k is
// first replaced by N − k when it is above (N−1)/2 (the result's y is
// negated back at the end), so its top byte is at most 0x7F and the
// top digit absorbs the last carry. Each byte plus the carry in
// becomes a digit in [−127, 128]: above 128 it is taken as the
// negative digit v − 256 and carries one into the next window.
func scalarBaseMultJac(k *scalar) jacPoint {
	kk, negate := *k, k.isHigh()
	if negate {
		kk.neg(k)
	}
	var acc jacPoint
	carry := 0
	for w := range gTable {
		d := int(kk.n[w/8]>>(w%8*8)&0xFF) + carry
		carry = 0
		if d > 128 {
			d -= 256
			carry = 1
		}
		if d > 0 {
			acc.addMixed(&acc, &gTable[w][d-1], nil)
		} else if d < 0 {
			q := gTable[w][-d-1]
			q.y.neg(&q.y)
			acc.addMixed(&acc, &q, nil)
		}
	}
	if negate {
		acc.y.neg(&acc.y)
	}
	return acc
}

// scalarMultJac computes k·P for a finite affine P. k is split by the
// GLV endomorphism into two half-width scalars, k·P = k1·P + k2·λP,
// and the two width-5 wNAFs share one chain of ~128 doublings
// (Straus) with ~21 mixed additions each against the effective-affine
// table of odd multiples of P; λ·(x, y) = (β·x, y), so the second
// table is eight multiplications by β.
func scalarMultJac(p *affinePoint, k *scalar) jacPoint {
	if k.isZero() {
		return jacPoint{}
	}
	var k1, k2 scalar
	k.splitLambda(&k1, &k2)
	neg1, neg2 := k1.isHigh(), k2.isHigh()
	if neg1 {
		k1.neg(&k1)
	}
	if neg2 {
		k2.neg(&k2)
	}
	var naf1, naf2 [wnafLen]int8
	n1, n2 := k1.wnaf(&naf1), k2.wnaf(&naf2)

	var tbl [8]affinePoint // P, 3P, …, 15P
	z := oddMultiples(&tbl, p)
	var betaX [8]fieldElement // x coordinates of λP, 3λP, …, 15λP
	for i := range tbl {
		betaX[i].mul(&tbl[i].x, &feBeta)
	}

	var acc jacPoint
	var q affinePoint
	for i := max(n1, n2) - 1; i >= 0; i-- {
		acc.double(&acc)
		if d := naf1[i]; d != 0 {
			q = tbl[abs8(d)/2]
			if (d < 0) != neg1 {
				q.y.neg(&q.y)
			}
			acc.addMixed(&acc, &q, nil)
		}
		if d := naf2[i]; d != 0 {
			q.x, q.y = betaX[abs8(d)/2], tbl[abs8(d)/2].y
			if (d < 0) != neg2 {
				q.y.neg(&q.y)
			}
			acc.addMixed(&acc, &q, nil)
		}
	}
	acc.z.mul(&acc.z, &z)
	return acc
}

func abs8(d int8) int {
	if d < 0 {
		return int(-d)
	}
	return int(d)
}

// doubleScalarMultJac computes u1·G + u2·Q for a finite affine Q: the
// table walk for the G half (no doublings), the GLV ladder for the Q
// half, and one general addition to join them.
func doubleScalarMultJac(u1 *scalar, q *affinePoint, u2 *scalar) jacPoint {
	a := scalarBaseMultJac(u1)
	b := scalarMultJac(q, u2)
	a.add(&a, &b)
	return a
}
