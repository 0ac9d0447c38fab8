// Package relop implements the relational operator kernels the staged engine
// executes: predicate scans, projections, hash aggregation, sorting,
// nested-loop / hash / merge joins, all operating on column-major tuple
// batches (storage.Batch) in a push-based pipeline.
//
// Operators receive input batches via Push and emit output batches through a
// caller-supplied emit callback, which is how the staged engine routes pages
// between stages and how the pivot fan-outs output to multiple sharers.
//
// # Kernel contracts
//
// The inner loops of aggregation, expression evaluation, filtering and the
// hash join work a page at a time on typed slices: the column type is
// resolved once per page, never per row. A warm HashAgg.Push allocates
// nothing, and a probe allocates only the page it emits, each column once
// at its final size. The contracts below are what lets those loops be
// rewritten without changing a single result byte; the differential tests
// hold them against row-at-a-time oracles (oracle_test.go, NLJoin).
//
// Group keys. HashAgg and MergeHashAgg resolve each page to a vector of dense
// group ids, assigned in first-seen order, and then fold one aggregate at a
// time into accumulators indexed by id. A single Int64/Date key is looked up
// in an open-addressed integer table; an empty key list is group 0 with no
// lookup; every other key shape is encoded per row into a reused byte buffer
// — 8 little-endian bytes per integer or date, the 8 IEEE-754 bytes per
// float (all NaNs folded to one pattern, +0 and -0 kept apart), a 4-byte
// length and the bytes per string — and looked up as a string-keyed map
// entry, which allocates only on the first sight of a group. The encoding is
// injective, and the length prefix keeps adjacent columns from running into
// each other.
//
// Emission order. Groups are emitted in ascending order of their canonical
// rendering, the concatenation of i%d| , f%g| or s%q| per key column. That
// string was once the per-row hash key; it is now rendered only at Finish,
// once per group and into one shared buffer, because it defines the output
// order every consumer and every stored reference result was produced under
// (so 10 sorts before 2, and negative numbers by their digits). Two keys share a rendering exactly when
// they share an encoding, so grouping is unchanged. The key values emitted
// for a group are those of its first row.
//
// Accumulation order. Within a page rows fold in row order, and pages in
// Push order, so each group's accumulators see its inputs in arrival order
// whatever ids the other rows carry. Floating-point sums therefore round as
// a row-at-a-time loop rounds them: results are byte-identical, not merely
// close. The same holds for expressions: Arith evaluates one kernel per node,
// each intermediate rounded to float64 before the next node reads it.
//
// Join index. A sealed HashTable maps each distinct key to a dense key id
// and keeps, per id, the build rows that carry it as one contiguous run of a
// flat row-id array, filled by a stable counting pass. Matches returns that
// run — build rows in insertion order, aliasing the index, read-only — so a
// probe emits matches in the order the build side arrived: it resolves each
// probe row to its key id and output row count, then fills the output one
// column at a time, run by run. FootprintBytes is fixed at seal.
//
// Scratch ownership. Expression intermediates live in scratch vectors owned
// by the evaluating operator and recycled at the top of its next Push: a
// value obtained while handling one page must not be read after the next
// page arrives. Nothing an operator emits aliases scratch, and the exported
// Expr.Eval methods never return it.
package relop
