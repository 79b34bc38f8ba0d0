// Package tpch provides the workload substrate of the paper's evaluation:
// a deterministic, scaled-down TPC-H data generator, the nine indexes of
// Table 3, the plans of all 22 queries, declared over the builder in
// plan.go (with the plan shapes of Figures 7, 8 and 10 for Q9, Q21 and
// Q18), the RF1/RF2 update functions, and the power-test /
// throughput-test stream drivers.
package tpch

import (
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/catalog"
)

// Day converts a calendar date to the engine's day-number representation
// (days since 1970-01-01).
func Day(y, m, d int) int64 {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

// Epoch boundaries of the TPC-H date domain.
var (
	StartDate = Day(1992, 1, 1)
	EndDate   = Day(1998, 12, 31)
)

func col(name string, t catalog.ColType) catalog.Column { return catalog.Column{Name: name, Type: t} }

// Schemas returns the eight TPC-H table schemas (the column subset the
// queries need).
func Schemas() map[string]catalog.Schema {
	return map[string]catalog.Schema{
		"region": catalog.NewSchema(
			col("r_regionkey", catalog.Int64),
			col("r_name", catalog.String),
		),
		"nation": catalog.NewSchema(
			col("n_nationkey", catalog.Int64),
			col("n_name", catalog.String),
			col("n_regionkey", catalog.Int64),
		),
		"supplier": catalog.NewSchema(
			col("s_suppkey", catalog.Int64),
			col("s_name", catalog.String),
			col("s_nationkey", catalog.Int64),
			col("s_acctbal", catalog.Float64),
			col("s_address", catalog.String),
			col("s_phone", catalog.String),
		),
		"customer": catalog.NewSchema(
			col("c_custkey", catalog.Int64),
			col("c_name", catalog.String),
			col("c_nationkey", catalog.Int64),
			col("c_mktsegment", catalog.String),
			col("c_acctbal", catalog.Float64),
			col("c_phone", catalog.String),
		),
		"part": catalog.NewSchema(
			col("p_partkey", catalog.Int64),
			col("p_name", catalog.String),
			col("p_mfgr", catalog.String),
			col("p_brand", catalog.String),
			col("p_type", catalog.String),
			col("p_size", catalog.Int64),
			col("p_container", catalog.String),
			col("p_retailprice", catalog.Float64),
		),
		"partsupp": catalog.NewSchema(
			col("ps_partkey", catalog.Int64),
			col("ps_suppkey", catalog.Int64),
			col("ps_availqty", catalog.Int64),
			col("ps_supplycost", catalog.Float64),
		),
		"orders": catalog.NewSchema(
			col("o_orderkey", catalog.Int64),
			col("o_custkey", catalog.Int64),
			col("o_orderstatus", catalog.String),
			col("o_totalprice", catalog.Float64),
			col("o_orderdate", catalog.Date),
			col("o_orderpriority", catalog.String),
			col("o_shippriority", catalog.Int64),
		),
		"lineitem": catalog.NewSchema(
			col("l_orderkey", catalog.Int64),
			col("l_partkey", catalog.Int64),
			col("l_suppkey", catalog.Int64),
			col("l_linenumber", catalog.Int64),
			col("l_quantity", catalog.Float64),
			col("l_extendedprice", catalog.Float64),
			col("l_discount", catalog.Float64),
			col("l_tax", catalog.Float64),
			col("l_returnflag", catalog.String),
			col("l_linestatus", catalog.String),
			col("l_shipdate", catalog.Date),
			col("l_commitdate", catalog.Date),
			col("l_receiptdate", catalog.Date),
			col("l_shipmode", catalog.String),
		),
	}
}

// TableNames lists the tables in load order (dimension tables first).
func TableNames() []string {
	return []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
}

// IndexSpec names one of the nine indexes of Table 3.
type IndexSpec struct {
	Name   string
	Table  string
	Column string
}

// Indexes returns Table 3's nine indexes.
func Indexes() []IndexSpec {
	return []IndexSpec{
		{Name: "idx_lineitem_partkey", Table: "lineitem", Column: "l_partkey"},
		{Name: "idx_lineitem_orderkey", Table: "lineitem", Column: "l_orderkey"},
		{Name: "idx_orders_orderkey", Table: "orders", Column: "o_orderkey"},
		{Name: "idx_partsupp_partkey", Table: "partsupp", Column: "ps_partkey"},
		{Name: "idx_part_partkey", Table: "part", Column: "p_partkey"},
		{Name: "idx_customer_custkey", Table: "customer", Column: "c_custkey"},
		{Name: "idx_supplier_suppkey", Table: "supplier", Column: "s_suppkey"},
		{Name: "idx_region_regionkey", Table: "region", Column: "r_regionkey"},
		{Name: "idx_nation_nationkey", Table: "nation", Column: "n_nationkey"},
	}
}

// Dataset is a loaded TPC-H database plus the bookkeeping the query
// builders and update functions need.
type Dataset struct {
	DB *engine.Database
	SF float64

	// Cardinalities after the initial load.
	Suppliers int64
	Customers int64
	Parts     int64
	Orders    int64
	Lineitems int64

	// NextOrderKey is the first unused order key (RF1 allocates from
	// here; RF2 deletes what RF1 inserted).
	NextOrderKey int64
	// pendingRF are orderkeys inserted by RF1 and not yet deleted.
	pendingRF []int64
}

// Names of regions/nations used by generation and by query parameters.
var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nationNames = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
	"ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA",
	"IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
	"SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

// nationRegion maps nation key to region key (TPC-H Appendix A.1).
var nationRegion = []int64{
	0, 1, 1, 1, 4,
	0, 3, 3, 2, 2,
	4, 4, 2, 4, 0,
	0, 0, 1, 2, 3,
	4, 2, 3, 3, 1,
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var shipmodes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
var containers = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR"}
var brands = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22", "Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#41", "Brand#42", "Brand#43", "Brand#44", "Brand#51", "Brand#53", "Brand#55"}
var typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
var typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
var nameWords = []string{
	"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched",
	"blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate",
	"coral", "cornflower", "cream", "cyan", "dark", "deep", "dim", "dodger",
	"drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
	"green", "grey", "honeydew", "hot", "indian", "ivory", "khaki", "lace",
}
