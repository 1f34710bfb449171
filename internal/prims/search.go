package prims

// SearchSorted returns the first index i in a with a[i] >= v (len(a) if none).
func SearchSorted(a []uint32, v uint32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := (lo + hi) / 2
		if a[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// SearchSorted64 returns the first index i in a with a[i] >= v.
func SearchSorted64(a []int64, v int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := (lo + hi) / 2
		if a[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
