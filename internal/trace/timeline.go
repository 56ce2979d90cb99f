package trace

import (
	"fmt"
	"sort"
	"strings"
)

// TimelineRecorder captures the lock-grant stream so lock ownership can be
// rendered as an ASCII timeline — monopolization shows up as long runs of
// one thread's glyph, FCFS as a regular weave.
type TimelineRecorder struct {
	grants []timelineEntry
	// Cap bounds memory: once Cap grants are recorded, each new grant
	// drops the oldest, so the recorder keeps the most recent Cap entries
	// (the steady state matters more than the head of the run).
	Cap int
}

type timelineEntry struct {
	at     int64
	thread int
	socket int
}

// Observe records one grant.
func (tr *TimelineRecorder) Observe(gi Grant) {
	if tr.Cap > 0 && len(tr.grants) >= tr.Cap {
		copy(tr.grants, tr.grants[1:])
		tr.grants = tr.grants[:len(tr.grants)-1]
	}
	tr.grants = append(tr.grants, timelineEntry{
		at: gi.At, thread: gi.ThreadID, socket: gi.Place.Socket,
	})
}

// Grants returns the number of recorded grants.
func (tr *TimelineRecorder) Grants() int { return len(tr.grants) }

// threadGlyphs label threads in the rendering.
const threadGlyphs = "0123456789abcdefghijklmnopqrstuvwxyz"

// Render draws the ownership timeline as rows of width columns: each
// column is one time bucket, showing the thread that received the most
// grants in that bucket (uppercase glyph if several threads were granted
// in the bucket). A per-thread share summary follows.
func (tr *TimelineRecorder) Render(width int) string {
	if len(tr.grants) == 0 {
		return "(no grants recorded)\n"
	}
	if width <= 0 {
		width = 64
	}
	start := tr.grants[0].at
	end := tr.grants[len(tr.grants)-1].at + 1
	span := end - start
	if span <= 0 {
		span = 1
	}

	// Stable thread -> glyph assignment in order of first appearance.
	glyphOf := map[int]byte{}
	var order []int
	for _, g := range tr.grants {
		if _, ok := glyphOf[g.thread]; !ok {
			glyphOf[g.thread] = threadGlyphs[len(order)%len(threadGlyphs)]
			order = append(order, g.thread)
		}
	}

	buckets := make([]map[int]int, width)
	for _, g := range tr.grants {
		b := int((g.at - start) * int64(width) / span)
		if b >= width {
			b = width - 1
		}
		if buckets[b] == nil {
			buckets[b] = map[int]int{}
		}
		buckets[b][g.thread]++
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
	fmt.Fprintf(&b, "lock ownership over %.1fus (%d grants):\n", float64(span)/1000, len(tr.grants))
	b.WriteString("  |" + string(line) + "|\n")

	counts := map[int]int{}
	for _, g := range tr.grants {
		counts[g.thread]++
	}
	sort.Ints(order)
	for _, th := range order {
		fmt.Fprintf(&b, "  %c = thread %-3d %5.1f%% of grants\n",
			glyphOf[th], th, 100*float64(counts[th])/float64(len(tr.grants)))
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
func (tr *TimelineRecorder) MaxShare() float64 {
	if len(tr.grants) == 0 {
		return 0
	}
	counts := map[int]int{}
	max := 0
	for _, g := range tr.grants {
		counts[g.thread]++
		if counts[g.thread] > max {
			max = counts[g.thread]
		}
	}
	return float64(max) / float64(len(tr.grants))
}

// LongestRun returns the longest streak of consecutive grants to the same
// thread — the direct signature of lock monopolization.
func (tr *TimelineRecorder) LongestRun() int {
	best, cur := 0, 0
	last := -1
	for _, g := range tr.grants {
		if g.thread == last {
			cur++
		} else {
			cur = 1
			last = g.thread
		}
		if cur > best {
			best = cur
		}
	}
	return best
}
