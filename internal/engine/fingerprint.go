package engine

import (
	"fmt"

	"repro/internal/storage"
)

// This file canonicalizes NodeSpec subtrees into subplan fingerprints — the
// identity under which work is shared. PR 1/PR 2 matched whole queries by an
// opaque Signature string, which pins the sharing pivot to "queries that are
// identical end to end". PR 3 fingerprinted the shared prefix of a linear
// chain; with tree-shaped plans the canonical form is recursive: a node's
// fingerprint combines its own identity with the canonical form of each
// input branch, so two queries merge whenever the subtrees rooted at a
// candidate pivot canonicalize identically — regardless of how the nodes are
// numbered, how the plans differ elsewhere, or which branch of a join the
// subtree hangs off. A Q4 date-window variant and its sibling share one
// lineitem build subplan even though their orders scans (and everything
// above) differ.
//
// Canonical form per node:
//
//   - Declared scans (NodeSpec.Scan) canonicalize structurally: table name,
//     table schema, the table's invalidation epoch, projected columns, the
//     predicate tree (relop predicates are plain value trees, so Go's %#v
//     rendering is a faithful canonical form), and the page quantum. Keying
//     by (name, schema, epoch) rather than the *storage.Table pointer makes
//     canonical keys deterministic across processes — two engines over
//     equal catalogs produce equal ShareKeys, so fingerprints are usable as
//     persistent cache keys — while the epoch term retires every key
//     derived from a table the moment it mutates (a stale artifact keyed on
//     the old epoch can never match a post-mutation arrival). Names alone
//     are not an in-process identity, though: two live Table instances may
//     share a name (drop-and-recreate restarts the epoch at 0; two catalogs
//     can coexist in one engine), and their derived artifacts must never
//     cross. The fingerprint therefore carries a table-identity qualifier
//     (tid): 0 when the name is unambiguous — the canonical, persistent
//     form — and the table's process-unique storage ID when the engine has
//     already bound the name to a different instance (see
//     Engine.tableIdentity). Engine-free canonicalization (ShareKey, tests,
//     monitors) always renders tid=0.
//   - Operators and joins are closures the engine cannot inspect, so they
//     canonicalize through the explicit NodeSpec.Fingerprint the plan
//     builder declares, combined per branch with their inputs' canonical
//     forms (join branches are labeled build/probe, so swapping the sides
//     changes the identity).
//   - A node without a fingerprint is opaque: its identity is (Signature,
//     node index) plus its inputs' canonical forms, which reproduces PR 1's
//     whole-signature matching exactly — unfingerprinted specs share
//     neither more nor less than before.
//
// A share key is the canonical form of the subtree rooted at the pivot.
// Build-side sharing uses the same canonical subtree with a marker naming
// the table's form — "!build" for a table that carries the build rows,
// "!keys" for the key-set table a Semi or Anti build seals — since attaching
// to a materialized hash table is a different contract than consuming a
// fanned-out page stream, and a key-set table cannot serve a probe that
// reads build rows: no two of the three may collide in the joinable map, on
// the bus or in the keep-alive cache.
//
// Rendering is bottom-up: one pass over the topologically ordered nodes
// computes every subtree's canonical form exactly once (children are always
// rendered before the parents that embed them), where the old recursive form
// re-rendered each subtree once per ancestor — O(depth²) string work per
// submit on deep plans, paid again for every pivot candidate probed. The
// per-spec result is what the submit-path compile cache memoizes (see
// compile.go).

// tableIdentFn resolves the in-process identity qualifier of a scanned
// table: 0 when the table name alone is unambiguous (the canonical,
// cross-process form), nonzero to disambiguate a same-named distinct
// instance. nil means "always 0" — the engine-free canonical form.
type tableIdentFn func(*storage.Table) uint64

// appendSubplanFingerprints fills fps[:len(spec.Nodes)] with the canonical
// form of every node's subtree in one bottom-up pass. fps must have
// len(spec.Nodes); entries are overwritten. ident qualifies scanned-table
// identity (nil = canonical form, tid always 0).
func appendSubplanFingerprints(spec QuerySpec, fps []string, ident tableIdentFn) {
	for i, nd := range spec.Nodes {
		switch {
		case nd.Scan != nil:
			sc := nd.Scan
			var tid uint64
			if ident != nil {
				tid = ident(sc.Table)
			}
			// nil Cols (every column) and empty Cols (no columns) project
			// differently; render nil as "*" so the two never share a key.
			cols := "*"
			if sc.Cols != nil {
				cols = fmt.Sprint(sc.Cols)
			}
			fps[i] = fmt.Sprintf("scan(%s|tid=%d|schema=%v|epoch=%d|cols=%s|pred=%#v|rows=%d)",
				sc.Table.Name, tid, sc.Table.Schema(), sc.Table.Epoch(), cols, sc.Pred, sc.PageRows)
		case nd.Fingerprint != "":
			switch {
			case nd.Op != nil:
				fps[i] = fmt.Sprintf("op(%s|%s)", nd.Fingerprint, fps[nd.Input])
			case nd.Join != nil:
				fps[i] = fmt.Sprintf("join(%s|build=%s|probe=%s)", nd.Fingerprint,
					fps[nd.BuildInput], fps[nd.ProbeInput])
			default: // opaque Source with a declared identity
				fps[i] = fmt.Sprintf("source(%s)", nd.Fingerprint)
			}
		default:
			switch {
			case nd.Op != nil:
				fps[i] = fmt.Sprintf("opaque(%s|%d|%s)", spec.Signature, i, fps[nd.Input])
			case nd.Join != nil:
				fps[i] = fmt.Sprintf("opaque(%s|%d|build=%s|probe=%s)", spec.Signature, i,
					fps[nd.BuildInput], fps[nd.ProbeInput])
			default:
				fps[i] = fmt.Sprintf("opaque(%s|%d)", spec.Signature, i)
			}
		}
	}
}

// subplanFingerprints returns the canonical form of every node's subtree.
func subplanFingerprints(spec QuerySpec) []string {
	fps := make([]string, len(spec.Nodes))
	appendSubplanFingerprints(spec, fps, nil)
	return fps
}

// subplanFingerprint returns the canonical form of the subtree of spec
// rooted at node i.
func subplanFingerprint(spec QuerySpec, i int) string {
	return subplanFingerprints(spec)[i]
}

// buildKeySuffix and keySetKeySuffix namespace build-state share keys away
// from fan-out share keys and from each other, by the form of the table the
// build seals; resultKeySuffix namespaces whole-plan result runs away from
// all of them.
const (
	buildKeySuffix  = "!build"
	keySetKeySuffix = "!keys"
	resultKeySuffix = "!result"
)

// buildKeySuffixAt returns the namespace of the table built from the subtree
// at pivot: keySetKeySuffix when the join consuming it declares a Build that
// seals a key-set table, buildKeySuffix otherwise. The form follows the
// join's kind and only the built operator knows it, so this instantiates the
// Build once; a factory error leaves the row-table namespace, and the submit
// that runs the factory reports the error.
func buildKeySuffixAt(spec QuerySpec, pivot int) string {
	c := spec.pivotConsumer(pivot)
	if c < 0 || spec.Nodes[c].Build == nil || spec.Nodes[c].BuildInput != pivot {
		return buildKeySuffix
	}
	if jb, err := spec.Nodes[c].Build(); err == nil && jb.KeySet() {
		return keySetKeySuffix
	}
	return buildKeySuffix
}

// shareKeyAt canonicalizes the subtree of spec rooted at the given pivot.
// Queries whose keys are equal run the same subplan at and below the pivot
// and may merge there, each keeping its own private remainder.
func shareKeyAt(spec QuerySpec, pivot int) string {
	return subplanFingerprint(spec, pivot)
}

// buildShareKeyAt canonicalizes the build subtree rooted at pivot for
// build-state sharing: the same subplan identity as shareKeyAt under a
// namespace naming the table's form, because a build-state group hands
// members a sealed hash table where a fan-out group hands them a page
// stream.
func buildShareKeyAt(spec QuerySpec, pivot int) string {
	return subplanFingerprint(spec, pivot) + buildKeySuffixAt(spec, pivot)
}

// ShareKey returns the canonical identity of spec's shared subplan at its
// declared pivot — the key the engine's joinable map and the work-exchange
// registry use. Exposed for tests and monitors that need to find a group's
// registry entries.
func ShareKey(spec QuerySpec) string { return shareKeyAt(spec, spec.Pivot) }

// BuildShareKey returns the canonical identity under which spec's build-side
// candidate at the given pivot publishes its hash table. Exposed for tests
// and monitors.
func BuildShareKey(spec QuerySpec, pivot int) string { return buildShareKeyAt(spec, pivot) }
