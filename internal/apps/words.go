package apps

import (
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// asciiSpace marks the six ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// lows and highs hold 0x21 and 0x80 in each of a uint64's eight bytes: the
// bounds of the printable ASCII bytes, none of which is a space, that words
// steps over eight at a time.
const (
	lows  = 0x2121212121212121
	highs = 0x8080808080808080
)

// words calls f with each field of line, in order: exactly the strings
// strings.Fields(line) returns, each a substring of line, without building
// the slice. A byte below utf8.RuneSelf is looked up in asciiSpace; any
// other is decoded and tested with unicode.IsSpace, and invalid UTF-8 is
// U+FFFD, which is not a space.
//
// Inside a field it steps eight bytes at a time over bytes in 0x21–0x7f,
// none of which is a space, and decides the first byte outside that range
// by the rule above. Of the eight bytes x holds, little endian, the high bit
// of (x-lows)&^x marks every byte below 0x21 from the lowest one up — a
// borrow can mark bytes above it, never below — and x's own high bits every
// byte from 0x80; the lowest mark is the byte to decide.
func words(line string, f func(w string)) {
	start := -1 // the open field's first byte, or -1 between fields
	for i := 0; i < len(line); {
		if start >= 0 {
			for ; i+8 <= len(line); i += 8 {
				b := line[i : i+8]
				x := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
					uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
				if m := ((x-lows)&^x | x) & highs; m != 0 {
					i += bits.TrailingZeros64(m) >> 3
					break
				}
			}
			if i == len(line) {
				break
			}
		}
		size, space := 1, false
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(line[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				f(line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		f(line[start:])
	}
}
