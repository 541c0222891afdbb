package event

import "math"

// Key is a payload value's canonical comparable form: the one key the
// matcher's correlation buckets, the fabric's routing index and the shard
// router agree on, so two values ValueEqual calls equal have equal keys.
// Numbers collapse to one float64 (int64(3) and float64(3) are one key),
// strings and bools stand for themselves. The zero Key is wild: the value
// has no definite key. Keys are plain comparable structs — no boxing, a
// string key shares the payload's string data — so deriving and comparing
// one allocates nothing.
type Key struct {
	kind keyKind
	num  float64 // keyNum: the value; keyBool: 0 or 1
	str  string  // keyStr: the value
}

type keyKind uint8

const (
	keyWild keyKind = iota
	keyNum
	keyStr
	keyBool
)

// KeyOf maps a payload value onto its key. Other dynamic types (and a
// missing value) are wild, as is NaN, which is not self-equal: a NaN map
// key could be inserted but never looked up again, and ValueEqual(NaN,
// NaN) is false, so nothing equality-based can accept a NaN-keyed pair.
func KeyOf(v Value) Key {
	switch x := v.(type) {
	case int:
		return Key{kind: keyNum, num: float64(x)}
	case int64:
		return Key{kind: keyNum, num: float64(x)}
	case float64:
		if x != x {
			return Key{}
		}
		return Key{kind: keyNum, num: x}
	case string:
		return Key{kind: keyStr, str: x}
	case bool:
		if x {
			return Key{kind: keyBool, num: 1}
		}
		return Key{kind: keyBool}
	default:
		return Key{}
	}
}

// Def reports whether the key is definite (not wild).
func (k Key) Def() bool { return k.kind != keyWild }

// Hash mixes the key into 64 bits with FNV-1a. It agrees with ==: −0 and 0
// are one key and hash alike, and every wild key hashes to the same value.
func (k Key) Hash() uint64 {
	h := fnvOffset ^ uint64(k.kind)
	h *= fnvPrime
	if k.kind == keyStr {
		for i := 0; i < len(k.str); i++ {
			h ^= uint64(k.str[i])
			h *= fnvPrime
		}
		return h
	}
	n := k.num
	if n == 0 {
		n = 0 // −0
	}
	x := math.Float64bits(n)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}
