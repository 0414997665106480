package secp256k1

// gTable is the precomputed base-point table, built once at package
// init from the authoritative big.Int parameters:
// gTable[w][d-1] = d · 16^w · G for d ∈ 1..15, a 4-bit windowed
// decomposition of G multiples. ScalarBaseMult becomes at most 64
// mixed additions with no doublings at all.
//
// Memory: 64·15 affine points · 64 bytes = 60 KiB, built in well
// under a millisecond thanks to batch normalization.
var gTable [64][15]affinePoint

func init() {
	initScalarConstants()
	buildBaseTables()
	initGLV()
}

func buildBaseTables() {
	var g affinePoint
	g.x.setBig(Gx)
	g.y.setBig(Gy)

	// windowBase walks 16^w·G; every table entry stays finite because
	// d·16^w < N for all d ≤ 15, w ≤ 63.
	var windowBase jacPoint
	windowBase.setAffine(&g)
	jacs := make([]jacPoint, 0, 64*15)
	for w := 0; w < 64; w++ {
		entry := windowBase
		jacs = append(jacs, entry)
		for d := 2; d <= 15; d++ {
			entry.add(&entry, &windowBase)
			jacs = append(jacs, entry)
		}
		windowBase.double(&windowBase)
		windowBase.double(&windowBase)
		windowBase.double(&windowBase)
		windowBase.double(&windowBase)
	}
	aff := batchToAffine(jacs)
	for w := 0; w < 64; w++ {
		copy(gTable[w][:], aff[w*15:(w+1)*15])
	}
}

// scalarBaseMultJac computes k·G by walking the windowed table: one
// mixed addition per non-zero nibble of k.
func scalarBaseMultJac(k *scalar) jacPoint {
	var acc jacPoint
	for w := 0; w < 64; w++ {
		nib := (k.n[w/16] >> uint((w%16)*4)) & 15
		if nib != 0 {
			acc.addMixed(&acc, &gTable[w][nib-1], nil)
		}
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
