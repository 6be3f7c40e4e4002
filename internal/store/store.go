// Package store holds a process's local copies of shared objects. Every
// S-DSO process keeps a full replica of the shared environment (the paper
// assumes "physical distribution of the shared environment across all
// interacting processes"); consistency protocols decide when replicas are
// reconciled. The store tracks a version per object so pull-based protocols
// (entry consistency) can tell stale copies from fresh ones.
//
// Object IDs are dense small integers (the game numbers its cells 0..W*H-1),
// so the replica is a table indexed by ID rather than a map. The table is
// paged: registering n sequential IDs allocates about n rows, and a row's
// address never moves. No method mutates an object's bytes in place — every
// state change installs a freshly built slice — so a row's registered
// initial state can share the registered copy, and slices handed out by View
// and Initial stay valid (if stale) after later writes.
package store

import (
	"fmt"

	"sdso/internal/diff"
)

// ID names a shared object.
type ID uint32

// MaxObjects bounds object IDs: Register rejects, and snapshot decoding
// refuses, any ID at or above it, so a hostile record cannot grow the table.
const MaxObjects = 1 << 20

// Rows are allocated in pages of pageSize, so the table never copies rows
// as it grows.
const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// object is one shared object replica.
type object struct {
	data []byte
	// init is the state the object was registered with: the universal
	// delta baseline every process shares. Nil for objects that entered
	// through a snapshot instead of Register.
	init    []byte
	version int64
	// writer is the process ID whose write produced this state, or -1
	// when unknown (initial state, snapshot restore, direct SetState).
	// Push protocols use it to arbitrate same-version data races by PID.
	writer int32
	ok     bool // registered
}

// Store is a set of shared-object replicas. It is not safe for concurrent
// use; callers running on real (non-simulated) transports must serialize
// access externally.
type Store struct {
	pages [][]object
	n     int
}

// New returns an empty store.
func New() *Store { return &Store{} }

// row returns id's registered row, or nil.
func (s *Store) row(id ID) *object {
	if p := int(id >> pageBits); p < len(s.pages) && s.pages[p] != nil {
		if o := &s.pages[p][id&pageMask]; o.ok {
			return o
		}
	}
	return nil
}

// lookup is row with the unregistered-object error.
func (s *Store) lookup(id ID) (*object, error) {
	if o := s.row(id); o != nil {
		return o, nil
	}
	return nil, fmt.Errorf("store: object %d not registered", id)
}

// put installs a registered row holding a copy of data at id, which must
// be below MaxObjects, allocating its page.
func (s *Store) put(id ID, data []byte, version int64) *object {
	p := int(id >> pageBits)
	if p >= len(s.pages) {
		s.pages = append(s.pages, make([][]object, p+1-len(s.pages))...)
	}
	if s.pages[p] == nil {
		s.pages[p] = make([]object, pageSize)
	}
	o := &s.pages[p][id&pageMask]
	if !o.ok {
		s.n++
	}
	*o = object{data: append([]byte{}, data...), version: version, writer: -1, ok: true}
	return o
}

// each visits every registered row in ascending ID order.
func (s *Store) each(visit func(id ID, o *object)) {
	for p, pg := range s.pages {
		for i := range pg {
			if pg[i].ok {
				visit(ID(p<<pageBits|i), &pg[i])
			}
		}
	}
}

// Register adds a shared object with its initial state. Registering an
// existing ID is an error: the paper's share() call registers each object
// exactly once at program initialization. So is an ID at or above
// MaxObjects.
func (s *Store) Register(id ID, initial []byte) error {
	if id >= MaxObjects {
		return fmt.Errorf("store: object %d out of range (max %d)", id, MaxObjects-1)
	}
	if s.Has(id) {
		return fmt.Errorf("store: object %d already registered", id)
	}
	o := s.put(id, initial, 0)
	o.init = o.data
	return nil
}

// Len returns the number of registered objects.
func (s *Store) Len() int { return s.n }

// Has reports whether id is registered.
func (s *Store) Has(id ID) bool { return s.row(id) != nil }

// IDs returns all registered object IDs in ascending order.
func (s *Store) IDs() []ID {
	out := make([]ID, 0, s.n)
	s.each(func(id ID, _ *object) { out = append(out, id) })
	return out
}

// Get returns a copy of the object's current state.
func (s *Store) Get(id ID) ([]byte, error) {
	o, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return append([]byte{}, o.data...), nil
}

// View returns the object's state without copying. The caller must not
// modify the returned slice; it exists for read-heavy inner loops (the game
// reads its whole visibility set every tick). Later writes install new
// slices, so a retained view keeps the state it was taken at.
func (s *Store) View(id ID) ([]byte, error) {
	o, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return o.data, nil
}

// Initial returns the state the object was registered with (nil for an
// object that entered through a snapshot). The caller must not modify it.
func (s *Store) Initial(id ID) []byte {
	if o := s.row(id); o != nil {
		return o.init
	}
	return nil
}

// Version returns the object's version counter.
func (s *Store) Version(id ID) (int64, error) {
	o, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	return o.version, nil
}

// Update overwrites the object's state with data, increments its version,
// and returns the diff from the previous state. An update that changes
// nothing returns an empty diff and does not bump the version. The writer
// is recorded as unknown; use UpdateBy to attribute the write.
func (s *Store) Update(id ID, data []byte) (diff.Diff, error) {
	return s.UpdateBy(id, data, -1)
}

// UpdateBy is Update attributed to a writing process: on a state change the
// object's writer is set to writer, so same-version data races can be
// arbitrated by PID.
func (s *Store) UpdateBy(id ID, data []byte, writer int) (diff.Diff, error) {
	o, err := s.lookup(id)
	if err != nil {
		return diff.Diff{}, err
	}
	d := diff.Compute(o.data, data)
	if d.Empty() {
		return d, nil
	}
	o.data = append([]byte{}, data...)
	o.version++
	o.writer = int32(writer)
	return d, nil
}

// WriterOf returns the process ID recorded for the object's current state,
// or -1 when the writer is unknown.
func (s *Store) WriterOf(id ID) (int, error) {
	o, err := s.lookup(id)
	if err != nil {
		return -1, err
	}
	return int(o.writer), nil
}

// ApplyDiff patches the object with a remotely produced diff and sets its
// version to the given remote version if that is newer. The writer is
// recorded as unknown; use ApplyDiffFrom to attribute the change.
func (s *Store) ApplyDiff(id ID, d diff.Diff, version int64) error {
	o, err := s.apply(id, d)
	if err == nil && version > o.version {
		o.version = version
	}
	return err
}

// ApplyDiffFrom is ApplyDiff attributed to the originating writer. The
// version and writer are adopted when version is at least the local one —
// the >= (rather than >) lets the caller install a same-version state after
// it has already decided the race by PID.
func (s *Store) ApplyDiffFrom(id ID, d diff.Diff, version int64, writer int) error {
	o, err := s.apply(id, d)
	if err == nil && version >= o.version {
		o.version, o.writer = version, int32(writer)
	}
	return err
}

// apply installs the object's state patched by d.
func (s *Store) apply(id ID, d diff.Diff) (*object, error) {
	o, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	next, err := diff.Apply(o.data, d)
	if err != nil {
		return nil, fmt.Errorf("object %d: %w", id, err)
	}
	o.data = next
	return o, nil
}

// SetState replaces the object's state and version outright (used when a
// pull-based protocol fetches a whole fresh copy).
func (s *Store) SetState(id ID, data []byte, version int64) error {
	return s.SetStateFrom(id, data, version, -1)
}

// SetStateFrom replaces the object's state and version outright and records
// the originating writer. Delta-encoded exchanges use it to install a
// reconstructed remote state while preserving the writer attribution that
// same-version PID arbitration depends on.
func (s *Store) SetStateFrom(id ID, data []byte, version int64, writer int) error {
	o, err := s.lookup(id)
	if err != nil {
		return err
	}
	o.data, o.version, o.writer = append([]byte{}, data...), version, int32(writer)
	return nil
}

// Clone returns a copy of the store (used to seed every process with the
// same initial shared environment). Rows are copied; object bytes are
// shared, which is safe because no state change mutates them in place.
func (s *Store) Clone() *Store {
	c := &Store{pages: make([][]object, len(s.pages)), n: s.n}
	for p, pg := range s.pages {
		if pg != nil {
			c.pages[p] = append([]object(nil), pg...)
		}
	}
	return c
}

// Equal reports whether two stores hold identical object states (versions
// are ignored: different protocols bump versions differently while agreeing
// on content).
func (s *Store) Equal(other *Store) bool {
	if s.n != other.n {
		return false
	}
	equal := true
	s.each(func(id ID, o *object) {
		oo := other.row(id)
		equal = equal && oo != nil && string(o.data) == string(oo.data)
	})
	return equal
}
