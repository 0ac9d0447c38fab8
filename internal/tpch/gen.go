package tpch

import (
	"fmt"

	"repro/internal/storage"
)

// Config controls data generation.
type Config struct {
	// ScaleFactor scales row counts: SF 1.0 ≈ 150k customers, 1.5M orders,
	// ~6M lineitems (the paper runs SF 1.0 in-memory; tests use small SFs —
	// the sharing trade-off depends on work ratios, which are
	// scale-invariant).
	ScaleFactor float64
	// Seed makes generation deterministic; the same seed always produces
	// identical tables.
	Seed uint64
}

// DB holds the generated tables.
type DB struct {
	// Customer has columns c_custkey, c_mktsegment.
	Customer *storage.Table
	// Orders has columns o_orderkey, o_custkey, o_orderdate,
	// o_orderpriority, o_comment.
	Orders *storage.Table
	// Lineitem has columns l_orderkey, l_quantity, l_extendedprice,
	// l_discount, l_tax, l_returnflag, l_linestatus, l_shipdate,
	// l_commitdate, l_receiptdate.
	Lineitem *storage.Table
}

// Table cardinalities at scale factor 1.
const (
	customersPerSF = 150_000
	ordersPerSF    = 1_500_000
)

// Priorities is the o_orderpriority domain.
var Priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

// The generator's uniform draws that decide the build-side selectivities
// cardinality.go encodes: each is 0 .. span-1 from prng.intn.
const (
	// l_shipdate - o_orderdate is 1 + a draw from shipSpan days.
	shipSpan = 121
	// l_commitdate - o_orderdate is commitMin + a draw from commitSpan days.
	commitMin, commitSpan = 30, 61
	// l_receiptdate - l_shipdate is 1 + a draw from receiptSpan days.
	receiptSpan = 30
	// One comment in specialOdds places "special" at a uniform word; a
	// comment has commentMinWords + a draw from commentWordSpan words.
	specialOdds                      = 33
	commentMinWords, commentWordSpan = 3, 5
)

// commentWords seeds o_comment; "special" + "requests" appear in order with
// roughly the frequency needed for Q13's anti-predicate to be selective but
// not trivial.
var commentWords = []string{
	"carefully", "final", "deposits", "sleep", "furiously", "ironic",
	"accounts", "pending", "theodolites", "quickly", "bold", "packages",
}

// Generate builds the database for the given configuration.
func Generate(cfg Config) (*DB, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("tpch: scale factor must be positive, got %g", cfg.ScaleFactor)
	}
	rng := newPRNG(cfg.Seed)
	db := &DB{
		Customer: storage.NewTable("customer", storage.MustSchema(
			storage.Column{Name: "c_custkey", Type: storage.Int64},
			storage.Column{Name: "c_mktsegment", Type: storage.String},
		)),
		Orders: storage.NewTable("orders", storage.MustSchema(
			storage.Column{Name: "o_orderkey", Type: storage.Int64},
			storage.Column{Name: "o_custkey", Type: storage.Int64},
			storage.Column{Name: "o_orderdate", Type: storage.Date},
			storage.Column{Name: "o_orderpriority", Type: storage.String},
			storage.Column{Name: "o_comment", Type: storage.String},
		)),
		Lineitem: storage.NewTable("lineitem", storage.MustSchema(
			storage.Column{Name: "l_orderkey", Type: storage.Int64},
			storage.Column{Name: "l_quantity", Type: storage.Int64},
			storage.Column{Name: "l_extendedprice", Type: storage.Float64},
			storage.Column{Name: "l_discount", Type: storage.Float64},
			storage.Column{Name: "l_tax", Type: storage.Float64},
			storage.Column{Name: "l_returnflag", Type: storage.String},
			storage.Column{Name: "l_linestatus", Type: storage.String},
			storage.Column{Name: "l_shipdate", Type: storage.Date},
			storage.Column{Name: "l_commitdate", Type: storage.Date},
			storage.Column{Name: "l_receiptdate", Type: storage.Date},
		)),
	}
	nCust := scaled(customersPerSF, cfg.ScaleFactor)
	nOrders := scaled(ordersPerSF, cfg.ScaleFactor)
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	for c := 1; c <= nCust; c++ {
		db.Customer.MustAppend(int64(c), segments[rng.intn(len(segments))])
	}
	// receiptCutoff splits returnflag R/A from N, per the dbgen rule keyed
	// on 1995-06-17.
	cutoff := MustDate(1995, 6, 17)
	orderSpan := int(DateOrderEnd - DateEpochStart)
	for o := 1; o <= nOrders; o++ {
		custkey := int64(1 + rng.intn(nCust))
		orderDate := DateEpochStart + int64(rng.intn(orderSpan+1))
		prio := Priorities[rng.intn(len(Priorities))]
		db.Orders.MustAppend(int64(o), custkey, orderDate, prio, rng.comment())
		lines := 1 + rng.intn(7)
		for l := 0; l < lines; l++ {
			qty := int64(1 + rng.intn(50))
			price := float64(qty) * (900 + float64(rng.intn(100_000))/100)
			discount := float64(rng.intn(11)) / 100 // 0.00 .. 0.10
			tax := float64(rng.intn(9)) / 100       // 0.00 .. 0.08
			shipDate := AddDays(orderDate, 1+rng.intn(shipSpan))
			commitDate := AddDays(orderDate, commitMin+rng.intn(commitSpan))
			receiptDate := AddDays(shipDate, 1+rng.intn(receiptSpan))
			var flag string
			switch {
			case receiptDate <= cutoff && rng.intn(2) == 0:
				flag = "R"
			case receiptDate <= cutoff:
				flag = "A"
			default:
				flag = "N"
			}
			status := "O"
			if shipDate <= cutoff {
				status = "F"
			}
			db.Lineitem.MustAppend(int64(o), qty, price, discount, tax, flag, status,
				shipDate, commitDate, receiptDate)
		}
	}
	return db, nil
}

// MustGenerate is Generate that panics on error.
func MustGenerate(cfg Config) *DB {
	db, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// prng is a splitmix64 generator: tiny, fast, and deterministic across
// platforms (unlike math/rand's global state, identical streams for a seed
// are guaranteed by this code alone).
type prng struct{ state uint64 }

func newPRNG(seed uint64) *prng { return &prng{state: seed ^ 0x9E3779B97F4A7C15} }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (p *prng) intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("tpch: intn(%d)", n))
	}
	return int(p.next() % uint64(n))
}

// comment builds an o_comment; about 3% contain "special" ... "requests" in
// order, making Q13's NOT LIKE filter meaningfully selective.
func (p *prng) comment() string {
	n := commentMinWords + p.intn(commentWordSpan)
	out := make([]byte, 0, 64)
	specialAt := -1
	if p.intn(specialOdds) == 0 {
		specialAt = p.intn(n)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		switch {
		case i == specialAt:
			out = append(out, "special"...)
		case i == specialAt+1 && specialAt >= 0:
			out = append(out, "requests"...)
		default:
			out = append(out, commentWords[p.intn(len(commentWords))]...)
		}
	}
	return string(out)
}
