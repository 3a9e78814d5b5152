package ir

import "sort"

// topK is a bounded min-heap over (id, score) pairs that keeps the k best
// candidates seen, replacing the full sort of every scored id. Ordering is
// the ranking contract of Search: higher score first, ties broken by lower
// id — so the heap root is the *worst* kept candidate (lowest score,
// highest id among equals).
type topK struct {
	k      int
	ids    []int32
	scores []float64
}

func newTopK(k int) *topK {
	return &topK{k: k, ids: make([]int32, 0, k), scores: make([]float64, 0, k)}
}

// worse reports whether entry i ranks below entry j.
func (h *topK) worse(i, j int) bool {
	if h.scores[i] != h.scores[j] {
		return h.scores[i] < h.scores[j]
	}
	return h.ids[i] > h.ids[j]
}

func (h *topK) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.scores[i], h.scores[j] = h.scores[j], h.scores[i]
}

func (h *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *topK) siftDown(i int) {
	n := len(h.ids)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.swap(i, worst)
		i = worst
	}
}

// offer considers a candidate, keeping it only if it ranks within the k
// best seen so far.
func (h *topK) offer(id int32, score float64) {
	if len(h.ids) < h.k {
		h.ids = append(h.ids, id)
		h.scores = append(h.scores, score)
		h.siftUp(len(h.ids) - 1)
		return
	}
	// Better than the current worst? The root loses its seat.
	if score < h.scores[0] || (score == h.scores[0] && id > h.ids[0]) {
		return
	}
	h.ids[0], h.scores[0] = id, score
	h.siftDown(0)
}

// ranked returns the kept ids best-first (score descending, id ascending).
func (h *topK) ranked() []int32 {
	order := make([]int, len(h.ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return h.worse(order[b], order[a]) })
	out := make([]int32, len(order))
	for i, idx := range order {
		out[i] = h.ids[idx]
	}
	return out
}
