package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// TimelineGrant is one entry of an ownership timeline: the thread granted
// the lock and the grant's virtual time.
type TimelineGrant struct {
	At     int64
	Thread int
}

// Timeline is one lock's grant sequence in grant order, rendered as an
// ASCII ownership timeline — monopolization shows up as long runs of one
// thread's glyph, FCFS as a regular weave. Recorder.Timeline builds it
// from a lock's hold spans.
type Timeline []TimelineGrant

// threadGlyphs label threads in the rendering.
const threadGlyphs = "0123456789abcdefghijklmnopqrstuvwxyz"

// Render draws the ownership timeline as rows of width columns: each
// column is one time bucket, showing the thread that received the most
// grants in that bucket (uppercase glyph if several threads were granted
// in the bucket). A per-thread share summary follows.
func (tl Timeline) Render(width int) string {
	if len(tl) == 0 {
		return "(no grants recorded)\n"
	}
	if width <= 0 {
		width = 64
	}
	start := tl[0].At
	end := tl[len(tl)-1].At + 1
	span := end - start
	if span <= 0 {
		span = 1
	}

	// Stable thread -> glyph assignment in order of first appearance.
	glyphOf := map[int]byte{}
	var order []int
	for _, g := range tl {
		if _, ok := glyphOf[g.Thread]; !ok {
			glyphOf[g.Thread] = threadGlyphs[len(order)%len(threadGlyphs)]
			order = append(order, g.Thread)
		}
	}

	buckets := make([]map[int]int, width)
	for _, g := range tl {
		b := int((g.At - start) * int64(width) / span)
		if b >= width {
			b = width - 1
		}
		if buckets[b] == nil {
			buckets[b] = map[int]int{}
		}
		buckets[b][g.Thread]++
	}

	line := make([]byte, width)
	for i, bk := range buckets {
		switch {
		case len(bk) == 0:
			line[i] = '.'
		default:
			// Iterate threads in sorted order so the lowest id wins ties
			// regardless of map iteration order.
			ths := make([]int, 0, len(bk))
			for th := range bk {
				ths = append(ths, th)
			}
			sort.Ints(ths)
			best, bestN, total := 0, 0, 0
			for _, th := range ths {
				n := bk[th]
				total += n
				if n > bestN {
					best, bestN = th, n
				}
			}
			c := glyphOf[best]
			if total > bestN {
				// Mixed bucket: uppercase marks contention turnover.
				c = upper(c)
			}
			line[i] = c
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "lock ownership over %.1fus (%d grants):\n", float64(span)/1000, len(tl))
	b.WriteString("  |" + string(line) + "|\n")

	counts := map[int]int{}
	for _, g := range tl {
		counts[g.Thread]++
	}
	sort.Ints(order)
	for _, th := range order {
		fmt.Fprintf(&b, "  %c = thread %-3d %5.1f%% of grants\n",
			glyphOf[th], th, 100*float64(counts[th])/float64(len(tl)))
	}
	return b.String()
}

func upper(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

// MaxShare returns the largest fraction of grants any single thread
// received — 1/nthreads for perfect fairness, approaching 1 under
// monopolization.
func (tl Timeline) MaxShare() float64 {
	if len(tl) == 0 {
		return 0
	}
	counts := map[int]int{}
	max := 0
	for _, g := range tl {
		counts[g.Thread]++
		if counts[g.Thread] > max {
			max = counts[g.Thread]
		}
	}
	return float64(max) / float64(len(tl))
}

// LongestRun returns the longest streak of consecutive grants to the same
// thread — the direct signature of lock monopolization.
func (tl Timeline) LongestRun() int {
	best, cur := 0, 0
	last := -1
	for _, g := range tl {
		if g.Thread == last {
			cur++
		} else {
			cur = 1
			last = g.Thread
		}
		if cur > best {
			best = cur
		}
	}
	return best
}
