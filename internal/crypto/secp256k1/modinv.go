package secp256k1

import "math/bits"

// Modular inversion by Bernstein–Yang "safegcd" (TCHES 2019), the
// variable-time form of libsecp256k1's modinv64_var: the one inverse
// behind both fieldElement.inv (mod p) and scalar.inverse (mod N).
//
// The algorithm runs divsteps on (f, g) = (m, x) until g = 0, keeping
// d·x ≡ f and e·x ≡ g (mod m). Each outer pass does 62 divsteps on the
// low 64 bits of f and g alone (divsteps62), collecting them as a 2×2
// matrix t scaled by 2^62, then applies t to the full-width f, g and —
// with a multiple of m that clears the low 62 bits, so the 2^62
// divides out exactly — to d, e. When g reaches 0, f = ±1 and
// d = ±x⁻¹.

// signed62 is an integer Σ v[i]·2^(62i): limbs 0–3 in [0, 2^62) once
// normalized, the top limb signed.
type signed62 [5]int64

// modInfo is a modulus in signed62 form and its inverse mod 2^62.
type modInfo struct {
	m     signed62
	inv62 uint64
}

// Limbs are chosen in (−2^61, 2^61] so that most are zero, which
// updateDE skips. TestModInfo holds both to P and N.
var (
	modP = modInfo{signed62{-0x1000003D1, 0, 0, 0, 256}, 0x27C7F6E22DDACACF}
	modN = modInfo{signed62{0x3FD25E8CD0364141, 0x2ABB739ABD2280EE, -0x15, 0, 256}, 0x34F20099AA774EC1}
)

// modInv sets x = x⁻¹ mod m for x < m; modInv(0) = 0.
func modInv(x *[4]uint64, mi *modInfo) {
	const m62 = 1<<62 - 1
	d, e := signed62{}, signed62{1}
	f, g := mi.m, signed62{
		int64(x[0] & m62),
		int64((x[0]>>62 | x[1]<<2) & m62),
		int64((x[1]>>60 | x[2]<<4) & m62),
		int64((x[2]>>58 | x[3]<<6) & m62),
		int64(x[3] >> 56),
	}
	n := len(f) // limbs of f and g still in use
	eta := int64(-1)
	for {
		var t [4]int64
		eta = divsteps62(eta, uint64(f[0]), uint64(g[0]), &t)
		updateDE(&d, &e, &t, mi)
		updateFG(n, &f, &g, &t)
		if g[0] == 0 {
			var rest int64
			for _, l := range g[1:n] {
				rest |= l
			}
			if rest == 0 {
				break
			}
		}
		// Once the top limbs of f and g are both 0 or −1 they carry
		// only sign: fold them into the limb below and drop them.
		fn, gn := f[n-1], g[n-1]
		if n > 1 && fn^fn>>63 == 0 && gn^gn>>63 == 0 {
			f[n-2] |= fn << 62
			g[n-2] |= gn << 62
			n--
		}
	}
	normalize62(&d, f[n-1], mi)
	x[0] = uint64(d[0]) | uint64(d[1])<<62
	x[1] = uint64(d[1])>>2 | uint64(d[2])<<60
	x[2] = uint64(d[2])>>4 | uint64(d[3])<<58
	x[3] = uint64(d[3])>>6 | uint64(d[4])<<56
}

// divsteps62 runs 62 divsteps (in the η = −δ convention) on odd f0 and
// on g0, returning the new η and the transition matrix t = [u v; q r]
// with t·[f0; g0] = 2^62·[f; g]. A run of zeros at the bottom of g is
// taken in one shift; otherwise a multiple of f chosen to clear up to
// six (after a swap) or four low bits of g is added at once.
func divsteps62(eta int64, f0, g0 uint64, t *[4]int64) int64 {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	f, g := f0, g0
	i := uint(62)
	for {
		// The sentinel bit at i stops the count at the divsteps left,
		// so every shift count here is below 64 (the &63 says so to
		// the compiler, which then drops its oversized-shift fixups).
		zeros := uint(bits.TrailingZeros64(g|^uint64(0)<<(i&63))) & 63
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= zeros
		if i == 0 {
			break
		}
		var w, mask uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			// No more than i bits, nor past the next sign change of η.
			limit := min(uint(eta)+1, i)
			mask = ^uint64(0) >> ((64 - limit) & 63) & 63
			w = f * g * (f*f - 2) & mask // −g/f mod 2^6
		} else {
			limit := min(uint(eta)+1, i)
			mask = ^uint64(0) >> ((64 - limit) & 63) & 15
			w = f + (f+1)&4<<1 // f⁻¹ mod 2^4
			w = -w * g & mask
		}
		g += f * w
		q += u * w
		r += v * w
	}
	t[0], t[1], t[2], t[3] = int64(u), int64(v), int64(q), int64(r)
	return eta
}

// mulAdd returns the signed 128-bit (hi, lo) + a·b: the unsigned
// product of the two's-complement words, corrected by b·2^64 when a is
// negative and by a·2^64 when b is.
func mulAdd(hi, lo uint64, a, b int64) (uint64, uint64) {
	h, l := bits.Mul64(uint64(a), uint64(b))
	h -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	lo, c := bits.Add64(lo, l, 0)
	return hi + h + c, lo
}

// shr62 is an arithmetic right shift of a signed 128-bit (hi, lo) by 62.
func shr62(hi, lo uint64) (uint64, uint64) {
	return uint64(int64(hi) >> 62), lo>>62 | hi<<2
}

// updateDE sets [d; e] = (t·[d; e] + m·[md; me]) / 2^62, with md, me
// chosen to make the division exact and to keep d, e in (−2m, m).
func updateDE(d, e *signed62, t *[4]int64, mi *modInfo) {
	const m62 = 1<<62 - 1
	u, v, q, r := t[0], t[1], t[2], t[3]
	sd, se := d[4]>>63, e[4]>>63
	md := u&sd + v&se
	me := q&sd + r&se
	dh, dl := mulAdd(0, 0, u, d[0])
	dh, dl = mulAdd(dh, dl, v, e[0])
	eh, el := mulAdd(0, 0, q, d[0])
	eh, el = mulAdd(eh, el, r, e[0])
	md -= int64((mi.inv62*dl + uint64(md)) & m62)
	me -= int64((mi.inv62*el + uint64(me)) & m62)
	dh, dl = mulAdd(dh, dl, mi.m[0], md)
	eh, el = mulAdd(eh, el, mi.m[0], me)
	dh, dl = shr62(dh, dl)
	eh, el = shr62(eh, el)
	for i := 1; i < len(d); i++ {
		dh, dl = mulAdd(dh, dl, u, d[i])
		dh, dl = mulAdd(dh, dl, v, e[i])
		eh, el = mulAdd(eh, el, q, d[i])
		eh, el = mulAdd(eh, el, r, e[i])
		if mi.m[i] != 0 {
			dh, dl = mulAdd(dh, dl, mi.m[i], md)
			eh, el = mulAdd(eh, el, mi.m[i], me)
		}
		d[i-1], e[i-1] = int64(dl&m62), int64(el&m62)
		dh, dl = shr62(dh, dl)
		eh, el = shr62(eh, el)
	}
	d[4], e[4] = int64(dl), int64(el)
}

// updateFG sets [f; g] = t·[f; g] / 2^62 over the low n limbs (the
// division is exact by construction of t).
func updateFG(n int, f, g *signed62, t *[4]int64) {
	const m62 = 1<<62 - 1
	u, v, q, r := t[0], t[1], t[2], t[3]
	fh, fl := mulAdd(0, 0, u, f[0])
	fh, fl = mulAdd(fh, fl, v, g[0])
	gh, gl := mulAdd(0, 0, q, f[0])
	gh, gl = mulAdd(gh, gl, r, g[0])
	fh, fl = shr62(fh, fl)
	gh, gl = shr62(gh, gl)
	for i := 1; i < n; i++ {
		fh, fl = mulAdd(fh, fl, u, f[i])
		fh, fl = mulAdd(fh, fl, v, g[i])
		gh, gl = mulAdd(gh, gl, q, f[i])
		gh, gl = mulAdd(gh, gl, r, g[i])
		f[i-1], g[i-1] = int64(fl&m62), int64(gl&m62)
		fh, fl = shr62(fh, fl)
		gh, gl = shr62(gh, gl)
	}
	f[n-1], g[n-1] = int64(fl), int64(gl)
}

// normalize62 brings r from (−2m, m) to [0, m), negated first when sign
// (the final f, ±1) is negative: add m if r < 0, negate if asked,
// propagate carries, then add m once more if r is still negative.
func normalize62(r *signed62, sign int64, mi *modInfo) {
	add := r[4] >> 63
	for i := range r {
		r[i] += mi.m[i] & add
	}
	neg := sign >> 63
	for i := range r {
		r[i] = r[i] ^ neg - neg
	}
	carry62(r)
	add = r[4] >> 63
	for i := range r {
		r[i] += mi.m[i] & add
	}
	carry62(r)
}

// carry62 brings limbs 0–3 of r back to [0, 2^62).
func carry62(r *signed62) {
	const m62 = 1<<62 - 1
	for i := 0; i < 4; i++ {
		r[i+1] += r[i] >> 62
		r[i] &= m62
	}
}
