package secp256k1

import "math/big"

// oracleBackend is the package's original math/big Jacobian
// implementation, retained verbatim as the reference oracle for the
// fixed-limb code: double-and-add over general Jacobian addition, with
// no tables, endomorphism or limb arithmetic in common with it. It is
// roughly 40× slower and exists so differential and fuzz tests can
// check every point operation against independent arithmetic.
type oracleBackend struct{}

// jacobian is a point in Jacobian projective coordinates:
// x = X/Z², y = Y/Z³. Z = 0 is the point at infinity.
type jacobian struct {
	x, y, z *big.Int
}

func toJacobian(p *Point) *jacobian {
	if p.IsInfinity() {
		return &jacobian{new(big.Int), new(big.Int), new(big.Int)}
	}
	return &jacobian{new(big.Int).Set(p.X), new(big.Int).Set(p.Y), big.NewInt(1)}
}

func (j *jacobian) toAffine() *Point {
	if j.z.Sign() == 0 {
		return &Point{}
	}
	zinv := new(big.Int).ModInverse(j.z, P)
	zinv2 := new(big.Int).Mul(zinv, zinv)
	zinv2.Mod(zinv2, P)
	x := new(big.Int).Mul(j.x, zinv2)
	x.Mod(x, P)
	zinv3 := zinv2.Mul(zinv2, zinv)
	zinv3.Mod(zinv3, P)
	y := new(big.Int).Mul(j.y, zinv3)
	y.Mod(y, P)
	return &Point{x, y}
}

// double returns 2*j using the standard dbl-2007-a formulas
// specialized for a = 0.
func (j *jacobian) double() *jacobian {
	if j.z.Sign() == 0 || j.y.Sign() == 0 {
		return &jacobian{new(big.Int), new(big.Int), new(big.Int)}
	}
	a := new(big.Int).Mul(j.x, j.x) // X²
	a.Mod(a, P)
	b := new(big.Int).Mul(j.y, j.y) // Y²
	b.Mod(b, P)
	c := new(big.Int).Mul(b, b) // Y⁴
	c.Mod(c, P)

	// D = 2*((X+B)² - A - C)
	d := new(big.Int).Add(j.x, b)
	d.Mul(d, d)
	d.Sub(d, a)
	d.Sub(d, c)
	d.Lsh(d, 1)
	d.Mod(d, P)

	// E = 3*A; F = E² - 2*D
	e := new(big.Int).Lsh(a, 1)
	e.Add(e, a)
	e.Mod(e, P)
	f := new(big.Int).Mul(e, e)
	f.Sub(f, new(big.Int).Lsh(d, 1))
	f.Mod(f, P)

	x3 := f
	y3 := new(big.Int).Sub(d, f)
	y3.Mul(y3, e)
	y3.Sub(y3, new(big.Int).Lsh(c, 3))
	y3.Mod(y3, P)
	z3 := new(big.Int).Mul(j.y, j.z)
	z3.Lsh(z3, 1)
	z3.Mod(z3, P)
	return &jacobian{normalize(x3), normalize(y3), z3}
}

// add returns j + q (mixed/general Jacobian addition).
func (j *jacobian) add(q *jacobian) *jacobian {
	if j.z.Sign() == 0 {
		return &jacobian{new(big.Int).Set(q.x), new(big.Int).Set(q.y), new(big.Int).Set(q.z)}
	}
	if q.z.Sign() == 0 {
		return &jacobian{new(big.Int).Set(j.x), new(big.Int).Set(j.y), new(big.Int).Set(j.z)}
	}
	z1z1 := new(big.Int).Mul(j.z, j.z)
	z1z1.Mod(z1z1, P)
	z2z2 := new(big.Int).Mul(q.z, q.z)
	z2z2.Mod(z2z2, P)
	u1 := new(big.Int).Mul(j.x, z2z2)
	u1.Mod(u1, P)
	u2 := new(big.Int).Mul(q.x, z1z1)
	u2.Mod(u2, P)
	s1 := new(big.Int).Mul(j.y, q.z)
	s1.Mul(s1, z2z2)
	s1.Mod(s1, P)
	s2 := new(big.Int).Mul(q.y, j.z)
	s2.Mul(s2, z1z1)
	s2.Mod(s2, P)

	if u1.Cmp(u2) == 0 {
		if s1.Cmp(s2) != 0 {
			// P + (-P) = infinity
			return &jacobian{new(big.Int), new(big.Int), new(big.Int)}
		}
		return j.double()
	}

	h := new(big.Int).Sub(u2, u1)
	h.Mod(h, P)
	i := new(big.Int).Lsh(h, 1)
	i.Mul(i, i)
	i.Mod(i, P)
	jj := new(big.Int).Mul(h, i)
	jj.Mod(jj, P)
	r := new(big.Int).Sub(s2, s1)
	r.Lsh(r, 1)
	r.Mod(r, P)
	v := new(big.Int).Mul(u1, i)
	v.Mod(v, P)

	x3 := new(big.Int).Mul(r, r)
	x3.Sub(x3, jj)
	x3.Sub(x3, new(big.Int).Lsh(v, 1))
	x3.Mod(x3, P)

	y3 := new(big.Int).Sub(v, x3)
	y3.Mul(y3, r)
	t := new(big.Int).Mul(s1, jj)
	t.Lsh(t, 1)
	y3.Sub(y3, t)
	y3.Mod(y3, P)

	z3 := new(big.Int).Add(j.z, q.z)
	z3.Mul(z3, z3)
	z3.Sub(z3, z1z1)
	z3.Sub(z3, z2z2)
	z3.Mul(z3, h)
	z3.Mod(z3, P)
	return &jacobian{normalize(x3), normalize(y3), normalize(z3)}
}

func normalize(v *big.Int) *big.Int {
	if v.Sign() < 0 {
		v.Add(v, P)
	}
	return v
}

func (oracleBackend) scalarMult(p *Point, k *big.Int) *Point {
	if k.Sign() == 0 || p.IsInfinity() {
		return &Point{}
	}
	acc := &jacobian{new(big.Int), new(big.Int), new(big.Int)}
	base := toJacobian(p)
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = acc.double()
		if k.Bit(i) == 1 {
			acc = acc.add(base)
		}
	}
	return acc.toAffine()
}

func (o oracleBackend) scalarBaseMult(k *big.Int) *Point {
	return o.scalarMult(&Point{Gx, Gy}, k)
}

func (oracleBackend) add(p, q *Point) *Point {
	return toJacobian(p).add(toJacobian(q)).toAffine()
}

func (o oracleBackend) doubleScalarBaseMult(k1 *big.Int, p *Point, k2 *big.Int) *Point {
	return o.add(o.scalarBaseMult(k1), o.scalarMult(p, k2))
}
