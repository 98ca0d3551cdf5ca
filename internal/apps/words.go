package apps

import (
	"unicode"
	"unicode/utf8"
)

// asciiSpace marks the six ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// words calls f with each field of line, in order: exactly the strings
// strings.Fields(line) returns, each a substring of line, without building
// the slice. A byte below utf8.RuneSelf is looked up in asciiSpace; any
// other is decoded and tested with unicode.IsSpace, and invalid UTF-8 is
// U+FFFD, which is not a space.
func words(line string, f func(w string)) {
	start := -1 // the open field's first byte, or -1 between fields
	for i := 0; i < len(line); {
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
