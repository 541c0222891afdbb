// Package ordkey builds order-preserving byte keys: appending encoded
// fields yields byte strings whose lexicographic order equals the
// field-by-field order of the encoded values. The consistency monitor
// builds its output-order tags from them — the emitting step, then a
// repaired fact's id or the operator's advance key (AppendAdvanceKey) —
// and the shard merge
// reconstructs the exact one-shard emission sequence by comparing tags
// with bytes.Compare.
package ordkey

// AppendUint appends v as 8 big-endian bytes, so that byte order equals
// unsigned numeric order.
func AppendUint(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendInt appends v with the sign bit flipped, so that byte order equals
// signed numeric order (negative values sort before positive ones).
func AppendInt(dst []byte, v int64) []byte {
	return AppendUint(dst, uint64(v)^(1<<63))
}

// AppendString appends s escaped (0x00 becomes 0x00 0x01) and terminated
// (0x00 0x00), so that no encoding is a prefix of another and the byte
// order of encodings equals the byte order of the raw strings. This makes
// variable-length fields safe to embed in the middle of a key.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			dst = append(dst, 0x00, 0x01)
			continue
		}
		dst = append(dst, s[i])
	}
	return append(dst, 0x00, 0x00)
}
