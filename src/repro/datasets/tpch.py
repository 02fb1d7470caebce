"""Synthetic TPC-H subset generator.

The demo supports sketches over TPC-H as its second dataset.  This
generator produces the classic 7-table schema (``region``, ``nation``,
``supplier``, ``customer``, ``part``, ``orders``, ``lineitem``) at a
configurable scale, following the spec's shapes where they matter for
cardinality estimation:

* uniform keys with fixed fan-outs (customer -> orders 1:10,
  orders -> lineitem 1:~4),
* dates as integer "day numbers" over a 7-year window,
* planted correlations absent from vanilla TPC-H but present in the
  skewed variants the estimation literature uses: order priority
  correlates with total price, ship date trails order date by a small
  lag, and discount depends on quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import SeedLike, make_rng, spawn
from ..db.column import Column
from ..db.database import Database
from ..db.schema import ColumnSchema, ForeignKey, TableSchema
from ..db.table import Table
from ..db.types import DType
from .distributions import repeat_parent_rows, zipf_weights

REGION_NAMES = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

#: Integer day numbers spanning 1992-01-01 .. 1998-12-31 (spec window).
DATE_LOW, DATE_HIGH = 0, 2557

#: Row counts at ``scale=1.0`` (``TpchConfig.scaled`` multiplies them).
N_CUSTOMERS = 3_000
N_SUPPLIERS = 200
N_PARTS = 4_000
#: Mean fan-outs (Poisson): customer -> orders, orders -> lineitem.
ORDERS_PER_CUSTOMER = 10.0
LINES_PER_ORDER = 4.0


@dataclass(frozen=True)
class TpchConfig:
    """Scale and seed; the row counts at scale 1.0 (a miniature of the
    spec's SF ratios) are this module's constants."""

    scale: float = 1.0
    seed: int = 11

    def scaled(self, base: int) -> int:
        return max(int(round(base * self.scale)), 1)


def _ints(name: str, values) -> Column:
    return Column.from_ints(name, np.asarray(values, dtype=np.int64))


def _floats(name: str, values) -> Column:
    return Column.from_floats(name, np.asarray(values, dtype=np.float64))


def generate_tpch(config: TpchConfig | None = None, seed: SeedLike = None) -> Database:
    """Generate the synthetic TPC-H database."""
    cfg = config or TpchConfig()
    rng = make_rng(cfg.seed if seed is None else seed)
    cust_rng, supp_rng, part_rng, order_rng, line_rng = spawn(rng, 5)

    db = Database("tpch")

    # region / nation -------------------------------------------------
    region = Table(
        TableSchema(
            "region",
            [ColumnSchema("r_regionkey", DType.INT64), ColumnSchema("r_name", DType.STRING)],
            primary_key="r_regionkey",
        ),
        {
            "r_regionkey": _ints("r_regionkey", np.arange(len(REGION_NAMES))),
            "r_name": Column.from_strings("r_name", list(REGION_NAMES)),
        },
    )
    db.add_table(region)

    n_nations = 25
    nation = Table(
        TableSchema(
            "nation",
            [
                ColumnSchema("n_nationkey", DType.INT64),
                ColumnSchema("n_name", DType.STRING),
                ColumnSchema("n_regionkey", DType.INT64),
            ],
            primary_key="n_nationkey",
        ),
        {
            "n_nationkey": _ints("n_nationkey", np.arange(n_nations)),
            "n_name": Column.from_strings("n_name", [f"NATION-{i:02d}" for i in range(n_nations)]),
            "n_regionkey": _ints("n_regionkey", np.arange(n_nations) % len(REGION_NAMES)),
        },
    )
    db.add_table(nation)

    # supplier ---------------------------------------------------------
    n_supp = cfg.scaled(N_SUPPLIERS)
    supplier = Table(
        TableSchema(
            "supplier",
            [
                ColumnSchema("s_suppkey", DType.INT64),
                ColumnSchema("s_nationkey", DType.INT64),
                ColumnSchema("s_acctbal", DType.FLOAT64),
            ],
            primary_key="s_suppkey",
        ),
        {
            "s_suppkey": _ints("s_suppkey", np.arange(1, n_supp + 1)),
            "s_nationkey": _ints("s_nationkey", supp_rng.integers(0, n_nations, n_supp)),
            "s_acctbal": _floats("s_acctbal", supp_rng.uniform(-999.99, 9999.99, n_supp)),
        },
    )
    db.add_table(supplier)

    # customer ----------------------------------------------------------
    n_cust = cfg.scaled(N_CUSTOMERS)
    # Market segments skewed; nation correlates with segment slightly.
    segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
    seg_ids = cust_rng.choice(5, size=n_cust, p=zipf_weights(5, 0.6))
    cust_nations = (seg_ids * 5 + cust_rng.integers(0, 5, n_cust)) % n_nations
    customer = Table(
        TableSchema(
            "customer",
            [
                ColumnSchema("c_custkey", DType.INT64),
                ColumnSchema("c_nationkey", DType.INT64),
                ColumnSchema("c_mktsegment", DType.STRING),
                ColumnSchema("c_acctbal", DType.FLOAT64),
            ],
            primary_key="c_custkey",
        ),
        {
            "c_custkey": _ints("c_custkey", np.arange(1, n_cust + 1)),
            "c_nationkey": _ints("c_nationkey", cust_nations),
            "c_mktsegment": Column.from_strings(
                "c_mktsegment", [segments[i] for i in seg_ids]
            ),
            "c_acctbal": _floats("c_acctbal", cust_rng.uniform(-999.99, 9999.99, n_cust)),
        },
    )
    db.add_table(customer)

    # part ---------------------------------------------------------------
    n_part = cfg.scaled(N_PARTS)
    sizes = part_rng.integers(1, 51, n_part)
    retail = 900.0 + sizes * 10.0 + part_rng.uniform(0, 100, n_part)
    part = Table(
        TableSchema(
            "part",
            [
                ColumnSchema("p_partkey", DType.INT64),
                ColumnSchema("p_size", DType.INT64),
                ColumnSchema("p_retailprice", DType.FLOAT64),
                ColumnSchema("p_brand", DType.STRING),
            ],
            primary_key="p_partkey",
        ),
        {
            "p_partkey": _ints("p_partkey", np.arange(1, n_part + 1)),
            "p_size": _ints("p_size", sizes),
            "p_retailprice": _floats("p_retailprice", retail),
            "p_brand": Column.from_strings(
                "p_brand", [f"Brand#{(i % 5) + 1}{(i % 5) + 1}" for i in part_rng.integers(0, 25, n_part)]
            ),
        },
    )
    db.add_table(part)

    # orders ---------------------------------------------------------------
    order_counts = order_rng.poisson(ORDERS_PER_CUSTOMER, n_cust)
    o_parent = repeat_parent_rows(order_counts)
    n_orders = len(o_parent)
    o_dates = order_rng.integers(DATE_LOW, DATE_HIGH - 150, n_orders)
    n_lines = np.maximum(order_rng.poisson(LINES_PER_ORDER, n_orders), 1)
    base_price = order_rng.uniform(900.0, 10_000.0, n_orders)
    o_total = base_price * n_lines
    # Priority correlates with total price: urgent orders are expensive.
    pri_cut = np.quantile(o_total, [0.55, 0.8])
    o_priority = np.where(o_total > pri_cut[1], 1, np.where(o_total > pri_cut[0], 2, 3))
    orders = Table(
        TableSchema(
            "orders",
            [
                ColumnSchema("o_orderkey", DType.INT64),
                ColumnSchema("o_custkey", DType.INT64),
                ColumnSchema("o_orderdate", DType.INT64),
                ColumnSchema("o_totalprice", DType.FLOAT64),
                ColumnSchema("o_orderpriority", DType.INT64),
            ],
            primary_key="o_orderkey",
        ),
        {
            "o_orderkey": _ints("o_orderkey", np.arange(1, n_orders + 1)),
            "o_custkey": _ints("o_custkey", o_parent + 1),
            "o_orderdate": _ints("o_orderdate", o_dates),
            "o_totalprice": _floats("o_totalprice", o_total),
            "o_orderpriority": _ints("o_orderpriority", o_priority),
        },
    )
    db.add_table(orders)

    # lineitem ----------------------------------------------------------
    l_parent = repeat_parent_rows(n_lines)
    n_li = len(l_parent)
    quantity = line_rng.integers(1, 51, n_li)
    # Discount correlates with quantity (bulk discounts).
    discount = np.round(
        np.clip(line_rng.normal(0.02 + quantity / 50.0 * 0.06, 0.01), 0.0, 0.1), 2
    )
    ship_lag = line_rng.integers(1, 122, n_li)
    lineitem = Table(
        TableSchema(
            "lineitem",
            [
                ColumnSchema("l_linekey", DType.INT64),
                ColumnSchema("l_orderkey", DType.INT64),
                ColumnSchema("l_partkey", DType.INT64),
                ColumnSchema("l_suppkey", DType.INT64),
                ColumnSchema("l_quantity", DType.INT64),
                ColumnSchema("l_discount", DType.FLOAT64),
                ColumnSchema("l_shipdate", DType.INT64),
            ],
            primary_key="l_linekey",
        ),
        {
            "l_linekey": _ints("l_linekey", np.arange(1, n_li + 1)),
            "l_orderkey": _ints("l_orderkey", l_parent + 1),
            "l_partkey": _ints(
                "l_partkey",
                line_rng.choice(n_part, size=n_li, p=zipf_weights(n_part, 0.7)) + 1,
            ),
            "l_suppkey": _ints("l_suppkey", line_rng.integers(1, n_supp + 1, n_li)),
            "l_quantity": _ints("l_quantity", quantity),
            "l_discount": _floats("l_discount", discount),
            "l_shipdate": _ints("l_shipdate", o_dates[l_parent] + ship_lag),
        },
    )
    db.add_table(lineitem)

    for table_name, column, ref_table, ref_column in (
        ("nation", "n_regionkey", "region", "r_regionkey"),
        ("supplier", "s_nationkey", "nation", "n_nationkey"),
        ("customer", "c_nationkey", "nation", "n_nationkey"),
        ("orders", "o_custkey", "customer", "c_custkey"),
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ):
        db.add_foreign_key(ForeignKey(table_name, column, ref_table, ref_column))
    return db


#: Aliases used by the TPC-H example workloads.
TPCH_ALIASES = {
    "customer": "c",
    "orders": "o",
    "lineitem": "l",
    "part": "p",
    "supplier": "s",
    "nation": "n",
    "region": "r",
}

#: Predicate columns for generated TPC-H workloads.
TPCH_PREDICATE_COLUMNS = {
    "customer": ("c_nationkey",),
    "orders": ("o_orderdate", "o_orderpriority"),
    "lineitem": ("l_quantity", "l_shipdate"),
    "part": ("p_size",),
    "supplier": ("s_nationkey",),
}
