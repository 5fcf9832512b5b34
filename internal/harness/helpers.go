package harness

import "strconv"

func itoa(n int) string { return strconv.Itoa(n) }

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
