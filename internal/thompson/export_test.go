package thompson

// Match simulates the NFA on a word (the tests' oracle).
func (n *NFA) Match(word []uint32) bool {
	cur := map[int32]bool{n.Initial: true}
	for _, c := range word {
		next := map[int32]bool{}
		for q := range cur {
			for _, t := range n.Trans[q] {
				if t.Sym == c {
					next[t.To] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	for q := range cur {
		if n.Final[q] {
			return true
		}
	}
	return false
}
