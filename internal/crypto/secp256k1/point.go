package secp256k1

// affinePoint is a curve point in affine coordinates over
// fieldElement. It cannot represent the point at infinity; tables
// only ever hold finite points.
type affinePoint struct {
	x, y fieldElement
}

// jacPoint is a curve point in Jacobian projective coordinates
// (x = X/Z², y = Y/Z³) over fieldElement. Z = 0 — the zero value —
// is the point at infinity.
type jacPoint struct {
	x, y, z fieldElement
}

func (p *jacPoint) isInf() bool { return p.z.isZero() }

func (p *jacPoint) setAffine(a *affinePoint) {
	p.x = a.x
	p.y = a.y
	p.z = feOne
}

// toAffine converts to affine coordinates; ok is false at infinity.
func (p *jacPoint) toAffine() (a affinePoint, ok bool) {
	if p.isInf() {
		return affinePoint{}, false
	}
	var zinv, zinv2, zinv3 fieldElement
	zinv.inv(&p.z)
	zinv2.sqr(&zinv)
	zinv3.mul(&zinv2, &zinv)
	a.x.mul(&p.x, &zinv2)
	a.y.mul(&p.y, &zinv3)
	return a, true
}

// double sets r = 2a using the a=0 doubling formulas (dbl-2007-a),
// the same schedule as the math/big oracle. Aliasing is allowed.
func (r *jacPoint) double(a *jacPoint) {
	if a.isInf() || a.y.isZero() {
		*r = jacPoint{}
		return
	}
	var A, B, C, D, E, F, t fieldElement
	A.sqr(&a.x) // X²
	B.sqr(&a.y) // Y²
	C.sqr(&B)   // Y⁴

	// D = 2((X+B)² − A − C)
	D.add(&a.x, &B)
	D.sqr(&D)
	D.sub(&D, &A)
	D.sub(&D, &C)
	D.add(&D, &D)

	// E = 3A; F = E²
	E.add(&A, &A)
	E.add(&E, &A)
	F.sqr(&E)

	var x3, y3, z3 fieldElement
	// X3 = F − 2D
	x3.sub(&F, &D)
	x3.sub(&x3, &D)
	// Y3 = E(D − X3) − 8C
	y3.sub(&D, &x3)
	y3.mul(&y3, &E)
	t.mulSmall(&C, 8)
	y3.sub(&y3, &t)
	// Z3 = 2YZ
	z3.mul(&a.y, &a.z)
	z3.add(&z3, &z3)

	r.x, r.y, r.z = x3, y3, z3
}

// add sets r = a + b (general Jacobian addition, add-2007-bl).
// Aliasing is allowed.
func (r *jacPoint) add(a, b *jacPoint) {
	if a.isInf() {
		*r = *b
		return
	}
	if b.isInf() {
		*r = *a
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2 fieldElement
	z1z1.sqr(&a.z)
	z2z2.sqr(&b.z)
	u1.mul(&a.x, &z2z2)
	u2.mul(&b.x, &z1z1)
	s1.mul(&a.y, &b.z)
	s1.mul(&s1, &z2z2)
	s2.mul(&b.y, &a.z)
	s2.mul(&s2, &z1z1)

	if u1.equal(&u2) {
		if !s1.equal(&s2) {
			*r = jacPoint{} // P + (−P)
			return
		}
		r.double(a)
		return
	}

	var h, i, j, rr, v fieldElement
	h.sub(&u2, &u1)
	i.add(&h, &h)
	i.sqr(&i)
	j.mul(&h, &i)
	rr.sub(&s2, &s1)
	rr.add(&rr, &rr)
	v.mul(&u1, &i)

	var x3, y3, z3, t fieldElement
	x3.sqr(&rr)
	x3.sub(&x3, &j)
	x3.sub(&x3, &v)
	x3.sub(&x3, &v)

	y3.sub(&v, &x3)
	y3.mul(&y3, &rr)
	t.mul(&s1, &j)
	t.add(&t, &t)
	y3.sub(&y3, &t)

	z3.add(&a.z, &b.z)
	z3.sqr(&z3)
	z3.sub(&z3, &z1z1)
	z3.sub(&z3, &z2z2)
	z3.mul(&z3, &h)

	r.x, r.y, r.z = x3, y3, z3
}

// addMixed sets r = a + b for an affine b (madd-2007-bl, Z2 = 1),
// saving five multiplications over the general form. Aliasing of r
// and a is allowed. When zr is non-nil and the generic branch runs it
// receives the ratio r.z / a.z (= 2·H), which oddMultiples uses to
// bring a chain of sums to a common Z without inverting.
func (r *jacPoint) addMixed(a *jacPoint, b *affinePoint, zr *fieldElement) {
	if a.isInf() {
		r.setAffine(b)
		return
	}
	var z1z1, u2, s2 fieldElement
	z1z1.sqr(&a.z)
	u2.mul(&b.x, &z1z1)
	s2.mul(&b.y, &a.z)
	s2.mul(&s2, &z1z1)

	if a.x.equal(&u2) {
		if !a.y.equal(&s2) {
			*r = jacPoint{}
			return
		}
		r.double(a)
		return
	}

	var h, h2, i, j, rr, v fieldElement
	h.sub(&u2, &a.x)
	h2.add(&h, &h)
	i.sqr(&h2)
	j.mul(&h, &i)
	rr.sub(&s2, &a.y)
	rr.add(&rr, &rr)
	v.mul(&a.x, &i)

	var x3, y3, z3, t fieldElement
	x3.sqr(&rr)
	x3.sub(&x3, &j)
	x3.sub(&x3, &v)
	x3.sub(&x3, &v)

	y3.sub(&v, &x3)
	y3.mul(&y3, &rr)
	t.mul(&a.y, &j)
	t.add(&t, &t)
	y3.sub(&y3, &t)

	z3.mul(&a.z, &h2) // Z3 = 2·Z1·H

	if zr != nil {
		*zr = h2
	}
	r.x, r.y, r.z = x3, y3, z3
}

// oddMultiples fills tbl with P, 3P, …, 15P for a finite affine P —
// as affine points of a curve isomorphic to secp256k1 — and returns
// the isomorphism's scale z: running the whole ladder on tbl with
// mixed additions and multiplying the result's Z by z gives the
// secp256k1 answer, with no field inversion spent on the table (the
// "effective affine" technique of libsecp256k1's ecmult).
//
// The doubling and addition formulas for y² = x³ + b never mention b,
// so they hold on every curve y² = x³ + b·u⁶, to which (X, Y, Z) ↦
// (X, Y, Z/u) maps secp256k1. First u = C, the Z of D = 2P: there D is
// affine and every step (2i+1)P = (2i−1)P + D is a mixed addition.
// Then u = z₇, the Z the last sum ended on: each earlier entry is
// rescaled to that Z through the chain of ratios addMixed reports.
func oddMultiples(tbl *[8]affinePoint, p *affinePoint) (z fieldElement) {
	var pj, d jacPoint
	pj.setAffine(p)
	d.double(&pj)
	var c2, c3 fieldElement
	c2.sqr(&d.z)
	c3.mul(&c2, &d.z)
	dAff := affinePoint{x: d.x, y: d.y}

	var jac [8]jacPoint
	var zr [8]fieldElement // zr[i] = jac[i].z / jac[i-1].z
	jac[0].x.mul(&p.x, &c2)
	jac[0].y.mul(&p.y, &c3)
	jac[0].z = feOne
	for i := 1; i < 8; i++ {
		jac[i].addMixed(&jac[i-1], &dAff, &zr[i])
	}

	tbl[7] = affinePoint{x: jac[7].x, y: jac[7].y}
	zs := feOne // jac[7].z / jac[i].z
	for i := 6; i >= 0; i-- {
		zs.mul(&zs, &zr[i+1])
		var zs2, zs3 fieldElement
		zs2.sqr(&zs)
		zs3.mul(&zs2, &zs)
		tbl[i].x.mul(&jac[i].x, &zs2)
		tbl[i].y.mul(&jac[i].y, &zs3)
	}
	z.mul(&jac[7].z, &d.z)
	return z
}

// batchToAffine normalizes finite Jacobian points into out (same
// length) with a single field inversion (Montgomery's trick): one inv
// plus three multiplies per point instead of one inv each.
func batchToAffine(out []affinePoint, ps []jacPoint) {
	n := len(ps)
	if n == 0 {
		return
	}
	// prefix[i] = z_0 · z_1 · … · z_i
	prefix := make([]fieldElement, n)
	prefix[0] = ps[0].z
	for i := 1; i < n; i++ {
		prefix[i].mul(&prefix[i-1], &ps[i].z)
	}
	var inv fieldElement
	inv.inv(&prefix[n-1])
	for i := n - 1; i >= 0; i-- {
		var zinv fieldElement
		if i == 0 {
			zinv = inv
		} else {
			zinv.mul(&inv, &prefix[i-1])
			inv.mul(&inv, &ps[i].z)
		}
		var zinv2, zinv3 fieldElement
		zinv2.sqr(&zinv)
		zinv3.mul(&zinv2, &zinv)
		out[i].x.mul(&ps[i].x, &zinv2)
		out[i].y.mul(&ps[i].y, &zinv3)
	}
}
