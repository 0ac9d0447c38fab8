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
// group ids, assigned in first-seen order, and then fold one accumulator at a
// time into slices indexed by id. A key is looked up one of three ways. An
// empty key list is group 0 with no lookup, and a single Int64/Date key goes
// to an open-addressed integer table. One to four String keys pack into one
// uint64 looked up in a second such table: per column, in group-by order, a
// length byte and then the bytes, low byte first, with the bytes left over
// zero. Read from the low end, the length bytes say where each column ends,
// so while a row's keys fit in 8 bytes two rows pack alike exactly when their
// keys are equal. The first row that does not fit demotes the table for good:
// the groups seen so far are re-keyed, under the ids they already have, into
// the map every other key shape uses. That map is keyed by an encoding built
// per row in a reused byte buffer — 8 little-endian bytes per integer or
// date, the 8 IEEE-754 bytes per float (all NaNs folded to one pattern, +0
// and -0 kept apart), a 4-byte length and the bytes per string — and
// allocates only on the first sight of a group. That encoding is injective
// too, the length prefix keeping adjacent columns from running into each
// other.
//
// Shared accumulators. Aggregates whose inputs are the same expression tree
// (Sum(x) and Avg(x)) share one sum, and every Count and Avg shares one row
// count, since no input is ever null. Only the first of each kind keeps and
// folds the accumulator, and the others read it at emission, so each
// distinct input is evaluated and folded once per page. The shared sum sees
// the same values in the same order each aggregate's own would, so the
// results are bit-identical. A partial aggregate emits the shared state under
// every aggregate that reads it, and the merge folds the owner's column.
//
// Emission order. Groups are emitted in ascending order of their canonical
// rendering, the concatenation of i%d| , f%g| or s%q| per key column. That
// string was once the per-row hash key; it is now rendered only at Finish,
// once per group and into one shared buffer, because it defines the output
// order every consumer and every stored reference result was produced under
// (so 10 sorts before 2, and negative numbers by their digits). Two keys
// share a rendering exactly when they share an encoding, so grouping is
// unchanged. The key values emitted for a group are those of its first row.
//
// Accumulation order. Within a page rows fold in row order, and pages in
// Push order, so each group's accumulators see its inputs in arrival order
// whatever ids the other rows carry. Floating-point sums therefore round as
// a row-at-a-time loop rounds them: results are byte-identical, not merely
// close. The same holds for expressions: Arith evaluates one kernel per node,
// each intermediate rounded to float64 before the next node reads it.
//
// Comparisons. Cmp switches on its operator once per page and then runs
// that operator's own loop, which writes every candidate row to the next
// free slot of the selection and advances the slot by the comparison's
// outcome as 0 or 1, so the loop has no data-dependent branch. The
// semantics are the three-way ones the loops replaced: numbers compare as
// float64 (integers included, so integers past 2^53 round as they meet a
// float), and an unordered pair, a NaN on either side, counts as equal.
// Le is therefore !(x > y), Ge is !(x < y), Eq holds when neither x < y nor
// x > y, and Ne when either does. A literal on the left is mirrored to the
// right (Lt becomes Gt, Le becomes Ge), and two literals decide the whole
// page at once. FuzzFilter holds every operator and operand shape to a
// row-at-a-time oracle.
//
// Join index. A sealed HashTable maps each distinct key to a dense key id
// and keeps, per id, the build rows that carry it as one contiguous run of a
// flat row-id array, filled by a stable counting pass. Matches returns that
// run — build rows in insertion order, aliasing the index, read-only — so a
// probe emits matches in the order the build side arrived: it resolves each
// probe row to its key id and output row count, then fills the output one
// column at a time, run by run. FootprintBytes is fixed at seal. A build
// looks a key up once per run of equal consecutive keys within a pushed
// page, since a build side clustered on its key (lineitem on l_orderkey)
// repeats each key over several rows; a run that straddles two pages costs
// one lookup per page.
//
// Build storage. A build's row vectors, key table, offsets, row ids and
// per-row key ids form one store, kept in a sync.Pool per build layout (the
// build schema's column types). A JoinBuild takes a store at its first Push,
// where it also applies its row hint; a recycled store keeps its capacity
// and its key table keeps its slots, so a warm build no larger than an
// earlier one of its layout allocates nothing and never regrows. The sealed
// HashTable owns the store until Recycle hands it back and nils the table's
// slices, so a late read panics rather than seeing the next build's rows.
// Storage is recycled at exactly two points, each the one moment no reader
// can remain: HashJoin.Finish for a private join, after its own probe, unless
// Table or MatchCounts handed the table out; and, in the engine, the release
// of a shared build's last prober when that release retires the build state
// and the engine has no keep-alive cache. Every other table is left to the
// garbage collector. A table retired by a failure, a sweep or its owner may
// still have probers reading it, since retirement ends only discoverability.
// A table the cache holds outlives every prober. A table taken from a bare
// JoinBuild.Table has readers nobody tracks. A build whose table may enter
// the cache allocates fresh storage (JoinBuild.FreshStorage), because the
// cache charges FootprintBytes and must not pin a larger store's capacity.
// The pools keep only what the garbage collector leaves them; there is no
// size cap to tune.
//
// Scratch ownership. Expression intermediates live in scratch vectors owned
// by the evaluating operator and recycled at the top of its next Push: a
// value obtained while handling one page must not be read after the next
// page arrives. Nothing an operator emits aliases scratch, and the exported
// Expr.Eval methods never return it.
package relop
