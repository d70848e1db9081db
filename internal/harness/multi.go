package harness

import (
	"fmt"
	"sort"

	"repro/internal/sketch"
)

// multiSketch fans every insert/merge out to one child sketch per
// algorithm so a single engine pass (event generation, delay simulation,
// windowing, ground-truth collection) evaluates all five algorithms on
// exactly the same event sequence — the uniform-setting requirement of
// the study. It is query-opaque: callers evaluate the named children.
type multiSketch struct {
	order    []string
	builders map[string]sketch.Builder
	children []sketch.Sketch // parallel to order
}

var (
	_ sketch.Sketch       = (*multiSketch)(nil)
	_ sketch.CountScaler  = (*multiSketch)(nil)
	_ sketch.ScaledMerger = (*multiSketch)(nil)
	_ sketch.Footprinter  = (*multiSketch)(nil)
	_ sketch.Degrader     = (*multiSketch)(nil)
)

// newMultiBuilder wraps per-algorithm builders into a single builder for
// the stream engine.
func newMultiBuilder(order []string, builders map[string]sketch.Builder) sketch.Builder {
	return func() sketch.Sketch {
		m := &multiSketch{order: order, builders: builders, children: make([]sketch.Sketch, len(order))}
		for i, name := range order {
			m.children[i] = builders[name]()
		}
		return m
	}
}

// child returns the named child sketch, nil when there is none.
func (m *multiSketch) child(name string) sketch.Sketch {
	for i, n := range m.order {
		if n == name {
			return m.children[i]
		}
	}
	return nil
}

// Insert implements sketch.Sketch.
func (m *multiSketch) Insert(x float64) {
	for _, c := range m.children {
		c.Insert(x)
	}
}

// InsertBatch implements sketch.BatchInserter by forwarding the batch
// to every child through its own batch kernel (when it has one), so the
// stream engine's batched path benefits all algorithms under test.
func (m *multiSketch) InsertBatch(xs []float64) {
	for _, c := range m.children {
		sketch.InsertAll(c, xs)
	}
}

// Merge implements sketch.Sketch.
func (m *multiSketch) Merge(other sketch.Sketch) error {
	return m.mergeEach(other, func(i int, dst, src sketch.Sketch) error { return dst.Merge(src) })
}

// MergeScaled implements sketch.ScaledMerger by forwarding every child
// through sketch.MergeScaled with that child's own builder, so each
// algorithm takes its native kernel when it has one.
func (m *multiSketch) MergeScaled(other sketch.Sketch, g float64) error {
	return m.mergeEach(other, func(i int, dst, src sketch.Sketch) error {
		return sketch.MergeScaled(dst, src, g, m.builders[m.order[i]])
	})
}

// mergeEach applies merge to each child pair in algorithm order.
func (m *multiSketch) mergeEach(other sketch.Sketch, merge func(i int, dst, src sketch.Sketch) error) error {
	o, ok := other.(*multiSketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into multi", sketch.ErrIncompatible, other.Name())
	}
	for i, name := range m.order {
		if i >= len(o.order) || o.order[i] != name {
			return fmt.Errorf("%w: missing child %s", sketch.ErrIncompatible, name)
		}
		if err := merge(i, m.children[i], o.children[i]); err != nil {
			return err
		}
	}
	return nil
}

// Quantile implements sketch.Sketch; the multiplexer is query-opaque.
func (m *multiSketch) Quantile(float64) (float64, error) {
	return 0, fmt.Errorf("harness: query the multi sketch's children, not the multiplexer")
}

// Rank implements sketch.Sketch; the multiplexer is query-opaque.
func (m *multiSketch) Rank(float64) (float64, error) {
	return 0, fmt.Errorf("harness: query the multi sketch's children, not the multiplexer")
}

// Count implements sketch.Sketch.
func (m *multiSketch) Count() uint64 {
	if len(m.children) == 0 {
		return 0
	}
	return m.children[0].Count()
}

// MemoryBytes implements sketch.Sketch.
func (m *multiSketch) MemoryBytes() int {
	total := 0
	for _, c := range m.children {
		total += c.MemoryBytes()
	}
	return total
}

// Name implements sketch.Sketch.
func (m *multiSketch) Name() string { return "multi" }

// Footprint implements sketch.Footprinter: the sum of the children's
// live footprints, so a memory-budget governor charges the multiplexer
// by what it actually holds.
func (m *multiSketch) Footprint() int {
	total := 0
	for _, c := range m.children {
		total += sketch.FootprintOf(c)
	}
	return total
}

// Degrade implements sketch.Degrader by degrading the currently
// largest degradable child (ties by algorithm order), so a budgeted
// multi-algorithm run sheds memory where it is actually spent. Children
// at their floor fall through to the next largest; ErrNotDegradable
// only when every child refuses.
func (m *multiSketch) Degrade() (int, error) {
	type cand struct {
		d    sketch.Degrader
		foot int
	}
	cands := make([]cand, 0, len(m.children))
	for _, c := range m.children {
		if d, ok := c.(sketch.Degrader); ok {
			cands = append(cands, cand{d, sketch.FootprintOf(c)})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].foot > cands[j].foot })
	for _, c := range cands {
		if freed, err := c.d.Degrade(); err == nil {
			return freed, nil
		}
	}
	return 0, sketch.ErrNotDegradable
}

// Reset implements sketch.Sketch.
func (m *multiSketch) Reset() {
	for _, c := range m.children {
		c.Reset()
	}
}

// ScaleCount implements sketch.CountScaler by forwarding to every
// child in deterministic algorithm order, so the engine's exponential
// decay applies to all algorithms under test at once. All five study
// sketches implement CountScaler; a child that does not is a
// configuration error surfaced at engine construction via the builder
// probe, so the assertion here cannot fire in a validated run.
func (m *multiSketch) ScaleCount(g float64) {
	for _, c := range m.children {
		c.(sketch.CountScaler).ScaleCount(g)
	}
}

// multiTag is the type tag of the multiplexer's own wire format. It is
// harness-local (not in sketch's shared tag space) because multi blobs
// only ever live inside checkpoint envelopes written and read by the
// harness itself.
const multiTag byte = 0x7E

// MarshalBinary implements encoding.BinaryMarshaler: each child's
// serialized state, name-prefixed, in deterministic algorithm order.
// Checkpointed harness runs persist the multiplexer through this.
func (m *multiSketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(64)
	w.Byte(multiTag)
	w.Byte(sketch.SerdeVersion)
	w.U32(uint32(len(m.order)))
	for i, name := range m.order {
		blob, err := m.children[i].MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("harness: multi child %s: %w", name, err)
		}
		w.Blob([]byte(name))
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Decoding is
// atomic: every child blob is decoded into a freshly built child first,
// and the receiver adopts the new children only if all of them succeed.
func (m *multiSketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if r.Byte() != multiTag || r.Byte() != sketch.SerdeVersion {
		return fmt.Errorf("harness: multi decode: %w", sketch.ErrCorrupt)
	}
	n := int(r.U32())
	if r.Err() != nil || n != len(m.order) {
		return fmt.Errorf("harness: multi decode: %d children, want %d: %w", n, len(m.order), sketch.ErrCorrupt)
	}
	fresh := make([]sketch.Sketch, n)
	for i := 0; i < n; i++ {
		name := string(r.Blob())
		blob := r.Blob()
		if r.Err() != nil {
			return fmt.Errorf("harness: multi decode: %w", r.Err())
		}
		if name != m.order[i] {
			return fmt.Errorf("harness: multi decode: child %d is %q, want %q: %w", i, name, m.order[i], sketch.ErrCorrupt)
		}
		b := m.builders[name]
		if b == nil {
			return fmt.Errorf("harness: multi decode: no builder for child %q: %w", name, sketch.ErrCorrupt)
		}
		c := b()
		if err := c.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("harness: multi decode child %s: %w", name, err)
		}
		fresh[i] = c
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("harness: multi decode: trailing bytes: %w", sketch.ErrCorrupt)
	}
	m.children = fresh
	return nil
}
