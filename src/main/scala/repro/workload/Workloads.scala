package repro.workload

import org.apache.spark.sql.catalyst.analysis.UnresolvedRelation
import org.apache.spark.sql.catalyst.parser.CatalystSqlParser
import repro.core.{Dag, MvNode}
import repro.workload.TpcDsLite.{Channel, Channels}

/** One MV update (a dependency-graph node): a SQL statement over base
  * tables and previously refreshed MVs.
  *
  * @param name           globally unique MV/view name (workload-prefixed)
  * @param sql            statement for the regular (TPC-DS) dataset
  * @param sqlPartitioned statement for the date-partitioned dataset
  *                       (TPC-DSp); defaults to `sql`. Extract nodes use a
  *                       partition filter here, which is what makes TPC-DSp
  *                       intermediates smaller (§ VI-A).
  * @param partitionYears per sales table, the years actually read — drives
  *                       partition-pruned read-cost modeling on TPC-DSp
  */
final case class MvSpec(
    name: String,
    sql: String,
    sqlPartitioned: Option[String] = None,
    partitionYears: Map[String, Seq[Int]] = Map.empty,
) {
  /** The relations `sql` reads, each in order of first appearance: the
    * base tables ([[TpcDsLite.AllTables]]) and the parents (every other
    * name, which [[Workload]] requires to be an earlier MV).
    */
  val (baseTables, parents): (Vector[String], Vector[String]) =
    MvSpec.relations(sql).partition(TpcDsLite.AllTables.contains)

  def sqlFor(partitioned: Boolean): String =
    if (partitioned) sqlPartitioned.getOrElse(sql) else sql
}

object MvSpec {
  /** Distinct relations `sql` reads, by first appearance, as Spark's parser sees them. */
  private[workload] def relations(sql: String): Vector[String] =
    CatalystSqlParser.parsePlan(sql)
      .collectWithSubqueries { case r: UnresolvedRelation => r.tableName }.distinct.toVector
}

/** A set of MVs refreshed together (one dependency graph / Table III row). */
final case class Workload(key: String, title: String, tpcdsQueries: String, mvs: Vector[MvSpec]) {
  val byName: Map[String, MvSpec] = mvs.map(m => m.name -> m).toMap
  require(byName.size == mvs.size, s"duplicate MV names in $key")
  mvs.zipWithIndex.foreach { case (m, i) =>
    m.parents.foreach { p =>
      val pi = mvs.indexWhere(_.name == p)
      require(pi >= 0 && pi < i, s"$key/${m.name}: reads $p, which is no base table or earlier MV")
    }
  }

  val index: Map[String, Int] = mvs.map(_.name).zipWithIndex.toMap

  /** Dependency edges as (parent index, child index). */
  val edges: Set[(Int, Int)] =
    mvs.zipWithIndex.flatMap { case (m, i) => m.parents.map(p => (index(p), i)) }.toSet

  /** Structure-only DAG (unit sizes/scores) for order computations. */
  def structuralDag: Dag =
    Dag(mvs.zipWithIndex.map { case (m, i) => MvNode(i, m.name, 1L, 1.0) }.toVector, edges)

  /** DAG with calibrated sizes and speedup scores. */
  def dag(sizes: Map[String, Long], speedups: Map[String, Double]): Dag =
    Dag(mvs.zipWithIndex.map { case (m, i) =>
      MvNode(i, m.name, sizes(m.name), speedups(m.name))
    }.toVector, edges)
}

/** The five MV refresh workloads of Table III, with the paper's node counts:
  * I/O 1 (21), I/O 2 (19), I/O 3 (26), Compute 1 (21), Compute 2 (16).
  *
  * Each workload decomposes its TPC-DS query group's topic into
  * select-project-join units over the TPC-DS-lite schema. I/O workloads
  * materialize wide multi-year extracts (large intermediates); Compute
  * workloads apply selective filters and multi-way joins/aggregations
  * (small intermediates, heavy compute) — matching the paper's I/O-ratio
  * ordering. All money aggregates go through DECIMAL(18,2) so the DuckDB
  * oracle comparison is exact.
  */
object Workloads {

  private val Dec = "DECIMAL(18,2)"

  /** UNION ALL of one `sel(channel key)` statement per sales channel. */
  private def unionChannels(sel: String => String): String =
    Channels.map(c => sel(c.key)).mkString("\nUNION ALL\n")

  /** Wide extract: sales ⋈ date_dim. On the regular dataset it keeps
    * `keepYears` (or all years when None) for reuse by downstream filters;
    * on TPC-DSp it reads only the `partYears` partitions — the paper's
    * smaller-intermediates effect.
    */
  private def extract(name: String, c: Channel, keepYears: Option[Seq[Int]],
                      partYears: Seq[Int]): MvSpec = {
    val proj =
      s"""SELECT ${c.date} AS sold_date_sk, ${c.item} AS item_sk, ${c.cust} AS customer_sk,
         |       ${c.qty} AS quantity, ${c.price} AS ext_sales_price, ${c.profit} AS net_profit,
         |       d_year AS d_year, d_moy AS d_moy
         |FROM ${c.table} JOIN date_dim ON ${c.date} = d_date_sk""".stripMargin
    val regular = keepYears match {
      case Some(ys) => s"$proj\nWHERE d_year IN (${ys.mkString(", ")})"
      case None     => proj
    }
    val part = s"$proj\nWHERE ${c.yearCol} IN (${partYears.mkString(", ")})"
    MvSpec(name, regular, Some(part), partitionYears = Map(c.table -> partYears))
  }

  // ----------------------------------------------------------------- I/O 1
  /** Profit report across channels (TPC-DS q5, q77, q80) — 21 nodes. */
  val io1: Workload = {
    val perChannel = Channels.flatMap { c =>
      val k = c.key
      Vector(
        // Regular extract retains a 2-year window for reuse; TPC-DSp prunes
        // to the single partition downstream nodes need — the paper's
        // smaller-intermediates effect.
        extract(s"io1_${k}_extract", c, keepYears = Some(Seq(1999, 2000)), partYears = Seq(2000)),
        MvSpec(s"io1_${k}_enriched",
          s"""SELECT e.item_sk AS item_sk, e.customer_sk AS customer_sk, e.quantity AS quantity,
             |       e.ext_sales_price AS ext_sales_price, e.net_profit AS net_profit,
             |       e.d_moy AS d_moy, i.i_category AS i_category, i.i_brand AS i_brand
             |FROM io1_${k}_extract e JOIN item i ON e.item_sk = i.i_item_sk
             |WHERE e.d_year = 2000""".stripMargin),
        MvSpec(s"io1_${k}_returns",
          s"""SELECT item_sk AS item_sk, customer_sk AS customer_sk,
             |       ext_sales_price AS ext_sales_price, net_profit AS net_profit, d_moy AS d_moy
             |FROM io1_${k}_extract
             |WHERE d_year = 2000 AND CAST(net_profit AS DOUBLE) < 0""".stripMargin),
        MvSpec(s"io1_${k}_cat_profit",
          s"""SELECT i_category AS i_category,
             |       SUM(CAST(ext_sales_price AS $Dec)) AS sales_amt,
             |       SUM(CAST(net_profit AS $Dec)) AS profit_amt,
             |       COUNT(*) AS cnt
             |FROM io1_${k}_enriched GROUP BY i_category""".stripMargin),
        MvSpec(s"io1_${k}_brand_profit",
          s"""SELECT i_brand AS i_brand,
             |       SUM(CAST(ext_sales_price AS $Dec)) AS sales_amt,
             |       SUM(CAST(net_profit AS $Dec)) AS profit_amt,
             |       COUNT(*) AS cnt
             |FROM io1_${k}_enriched GROUP BY i_brand""".stripMargin),
        MvSpec(s"io1_${k}_loss_by_month",
          s"""SELECT d_moy AS d_moy, SUM(CAST(net_profit AS $Dec)) AS loss_amt, COUNT(*) AS cnt
             |FROM io1_${k}_returns GROUP BY d_moy""".stripMargin),
      )
    }
    val cross = Vector(
      MvSpec("io1_all_cat_profit",
        unionChannels(k =>
          s"SELECT '$k' AS channel, i_category AS i_category, sales_amt AS sales_amt, " +
          s"profit_amt AS profit_amt, cnt AS cnt FROM io1_${k}_cat_profit")),
      MvSpec("io1_all_loss",
        unionChannels(k =>
          s"SELECT '$k' AS channel, d_moy AS d_moy, loss_amt AS loss_amt, cnt AS cnt " +
          s"FROM io1_${k}_loss_by_month")),
      MvSpec("io1_profit_report",
        s"""SELECT i_category AS i_category,
           |       SUM(CAST(sales_amt AS $Dec)) AS total_sales,
           |       SUM(CAST(profit_amt AS $Dec)) AS total_profit,
           |       SUM(CAST(cnt AS BIGINT)) AS total_cnt
           |FROM io1_all_cat_profit GROUP BY i_category""".stripMargin),
    )
    Workload("io1", "I/O 1", "5, 77, 80", perChannel ++ cross)
  }

  // ----------------------------------------------------------------- I/O 2
  /** Year-over-year sales comparison (TPC-DS q2, q59, q74, q75) — 19 nodes. */
  val io2: Workload = {
    val perChannel = Channels.flatMap { c =>
      val k = c.key
      Vector(
        // One wide two-year extract per channel, reused by three aggregate
        // consumers — the paper's most intermediate-I/O-bound workload.
        extract(s"io2_${k}_extract", c, keepYears = Some(Seq(1999, 2000)),
          partYears = Seq(1999, 2000)),
        MvSpec(s"io2_${k}_agg99",
          s"""SELECT d_moy AS d_moy, SUM(CAST(ext_sales_price AS $Dec)) AS sales_99,
             |       COUNT(*) AS cnt_99
             |FROM io2_${k}_extract WHERE d_year = 1999 GROUP BY d_moy""".stripMargin),
        MvSpec(s"io2_${k}_agg00",
          s"""SELECT d_moy AS d_moy, SUM(CAST(ext_sales_price AS $Dec)) AS sales_00,
             |       COUNT(*) AS cnt_00
             |FROM io2_${k}_extract WHERE d_year = 2000 GROUP BY d_moy""".stripMargin),
        MvSpec(s"io2_${k}_monthly",
          s"""SELECT d_year AS d_year, d_moy AS d_moy,
             |       SUM(CAST(ext_sales_price AS $Dec)) AS sales_amt,
             |       SUM(CAST(quantity AS BIGINT)) AS qty_sum, COUNT(*) AS cnt
             |FROM io2_${k}_extract GROUP BY d_year, d_moy""".stripMargin),
        MvSpec(s"io2_${k}_yoy",
          s"""SELECT a.d_moy AS d_moy, a.sales_99 AS sales_99, a.cnt_99 AS cnt_99,
             |       b.sales_00 AS sales_00, b.cnt_00 AS cnt_00
             |FROM io2_${k}_agg99 a JOIN io2_${k}_agg00 b ON a.d_moy = b.d_moy""".stripMargin),
      )
    }
    val cross = Vector(
      MvSpec("io2_store_web",
        """SELECT s.d_moy AS d_moy, s.sales_99 AS store_99, s.sales_00 AS store_00,
          |       w.sales_99 AS web_99, w.sales_00 AS web_00
          |FROM io2_store_yoy s JOIN io2_web_yoy w ON s.d_moy = w.d_moy""".stripMargin),
      MvSpec("io2_store_catalog",
        """SELECT s.d_moy AS d_moy, s.sales_99 AS store_99, s.sales_00 AS store_00,
          |       c.sales_99 AS catalog_99, c.sales_00 AS catalog_00
          |FROM io2_store_yoy s JOIN io2_catalog_yoy c ON s.d_moy = c.d_moy""".stripMargin),
      MvSpec("io2_all_channels",
        """SELECT sw.d_moy AS d_moy, sw.store_99 AS store_99, sw.store_00 AS store_00,
          |       sw.web_99 AS web_99, sw.web_00 AS web_00,
          |       c.sales_99 AS catalog_99, c.sales_00 AS catalog_00
          |FROM io2_store_web sw JOIN io2_catalog_yoy c ON sw.d_moy = c.d_moy""".stripMargin),
      MvSpec("io2_yoy_report",
        s"""SELECT d_moy AS d_moy, store_00 AS store_00, web_00 AS web_00, catalog_00 AS catalog_00
           |FROM io2_all_channels
           |WHERE CAST(store_00 AS $Dec) > CAST(store_99 AS $Dec)
           |   OR CAST(web_00 AS $Dec) > CAST(web_99 AS $Dec)""".stripMargin),
    )
    Workload("io2", "I/O 2", "2, 59, 74, 75", perChannel ++ cross)
  }

  // ----------------------------------------------------------------- I/O 3
  /** Best/worst performers and loss ratios (TPC-DS q44, q49) — 26 nodes. */
  val io3: Workload = {
    val perChannel = Channels.flatMap { c =>
      val k = c.key
      Vector(
        extract(s"io3_${k}_base", c, keepYears = Some(Seq(1999, 2000)), partYears = Seq(2000)),
        MvSpec(s"io3_${k}_pos",
          s"""SELECT item_sk AS item_sk, quantity AS quantity,
             |       ext_sales_price AS ext_sales_price, net_profit AS net_profit
             |FROM io3_${k}_base
             |WHERE d_year = 2000 AND CAST(net_profit AS DOUBLE) >= 0""".stripMargin),
        MvSpec(s"io3_${k}_neg",
          s"""SELECT item_sk AS item_sk, quantity AS quantity,
             |       ext_sales_price AS ext_sales_price, net_profit AS net_profit
             |FROM io3_${k}_base
             |WHERE d_year = 2000 AND CAST(net_profit AS DOUBLE) < 0""".stripMargin),
        MvSpec(s"io3_${k}_pos_agg",
          s"""SELECT item_sk AS item_sk, SUM(CAST(ext_sales_price AS $Dec)) AS pos_amt,
             |       COUNT(*) AS pos_cnt
             |FROM io3_${k}_pos GROUP BY item_sk""".stripMargin),
        MvSpec(s"io3_${k}_neg_agg",
          s"""SELECT item_sk AS item_sk,
             |       CAST(SUM(CAST(net_profit AS $Dec)) * -1 AS $Dec) AS loss_amt,
             |       COUNT(*) AS neg_cnt
             |FROM io3_${k}_neg GROUP BY item_sk""".stripMargin),
        MvSpec(s"io3_${k}_ratio",
          s"""SELECT p.item_sk AS item_sk, p.pos_amt AS pos_amt, p.pos_cnt AS pos_cnt,
             |       n.loss_amt AS loss_amt, n.neg_cnt AS neg_cnt
             |FROM io3_${k}_pos_agg p JOIN io3_${k}_neg_agg n ON p.item_sk = n.item_sk""".stripMargin),
        MvSpec(s"io3_${k}_worst",
          s"""SELECT item_sk AS item_sk, pos_amt AS pos_amt, loss_amt AS loss_amt
             |FROM io3_${k}_ratio
             |WHERE CAST(loss_amt AS $Dec) * 16 > CAST(pos_amt AS $Dec)""".stripMargin),
        MvSpec(s"io3_${k}_best",
          s"""SELECT item_sk AS item_sk, pos_amt AS pos_amt, loss_amt AS loss_amt
             |FROM io3_${k}_ratio
             |WHERE CAST(loss_amt AS $Dec) * 18 < CAST(pos_amt AS $Dec)""".stripMargin),
      )
    }
    val cross = Vector(
      MvSpec("io3_all_worst",
        unionChannels(k =>
          s"SELECT '$k' AS channel, item_sk AS item_sk, pos_amt AS pos_amt, " +
          s"loss_amt AS loss_amt FROM io3_${k}_worst")),
      MvSpec("io3_worst_report",
        s"""SELECT i.i_category AS i_category, COUNT(*) AS item_cnt,
           |       SUM(CAST(w.loss_amt AS $Dec)) AS total_loss
           |FROM io3_all_worst w JOIN item i ON w.item_sk = i.i_item_sk
           |GROUP BY i.i_category""".stripMargin),
    )
    Workload("io3", "I/O 3", "44, 49", perChannel ++ cross)
  }

  // ------------------------------------------------------------- Compute 1
  /** Cross-channel category/manufacturer aggregation for one month
    * (TPC-DS q33, q56, q60, q61) — 21 nodes, highly selective filters.
    */
  val compute1: Workload = {
    val perChannel = Channels.flatMap { c =>
      val k = c.key
      val jan =
        s"""SELECT ${c.item} AS item_sk, ${c.cust} AS customer_sk,
           |       i_manufact_id AS i_manufact_id, i_category AS i_category, i_brand AS i_brand,
           |       ${c.qty} AS quantity, ${c.price} AS ext_sales_price
           |FROM ${c.table}
           |  JOIN date_dim ON ${c.date} = d_date_sk
           |  JOIN item ON ${c.item} = i_item_sk""".stripMargin
      Vector(
        MvSpec(s"c1_${k}_jan",
          s"$jan\nWHERE d_year = 2000 AND d_moy = 1",
          Some(s"$jan\nWHERE ${c.yearCol} = 2000 AND d_moy = 1"),
          partitionYears = Map(c.table -> Seq(2000))),
        MvSpec(s"c1_${k}_manu_agg",
          s"""SELECT i_manufact_id AS i_manufact_id,
             |       SUM(CAST(ext_sales_price AS $Dec)) AS sales_amt,
             |       SUM(CAST(quantity AS BIGINT)) AS qty_sum, COUNT(*) AS cnt
             |FROM c1_${k}_jan GROUP BY i_manufact_id""".stripMargin),
        MvSpec(s"c1_${k}_cat_agg",
          s"""SELECT i_category AS i_category,
             |       SUM(CAST(ext_sales_price AS $Dec)) AS sales_amt,
             |       SUM(CAST(quantity AS BIGINT)) AS qty_sum, COUNT(*) AS cnt
             |FROM c1_${k}_jan GROUP BY i_category""".stripMargin),
        MvSpec(s"c1_${k}_state_agg",
          s"""SELECT c_state AS c_state, SUM(CAST(ext_sales_price AS $Dec)) AS sales_amt,
             |       COUNT(*) AS cnt
             |FROM c1_${k}_jan j JOIN customer c ON j.customer_sk = c.c_customer_sk
             |GROUP BY c_state""".stripMargin),
        MvSpec(s"c1_${k}_high_value",
          s"""SELECT item_sk AS item_sk, SUM(CAST(ext_sales_price AS $Dec)) AS sales_amt
             |FROM c1_${k}_jan GROUP BY item_sk
             |HAVING SUM(CAST(ext_sales_price AS $Dec)) > 20000""".stripMargin),
        MvSpec(s"c1_${k}_top_items",
          s"""SELECT h.item_sk AS item_sk, i.i_category AS i_category, i.i_brand AS i_brand,
             |       h.sales_amt AS sales_amt
             |FROM c1_${k}_high_value h JOIN item i ON h.item_sk = i.i_item_sk""".stripMargin),
      )
    }
    val cross = Vector(
      MvSpec("c1_all_manu",
        unionChannels(k =>
          s"SELECT '$k' AS channel, i_manufact_id AS i_manufact_id, sales_amt AS sales_amt, " +
          s"qty_sum AS qty_sum, cnt AS cnt FROM c1_${k}_manu_agg")),
      MvSpec("c1_manu_report",
        s"""SELECT i_manufact_id AS i_manufact_id,
           |       SUM(CAST(sales_amt AS $Dec)) AS total_sales,
           |       SUM(CAST(cnt AS BIGINT)) AS total_cnt
           |FROM c1_all_manu GROUP BY i_manufact_id""".stripMargin),
      MvSpec("c1_all_state",
        unionChannels(k =>
          s"SELECT '$k' AS channel, c_state AS c_state, sales_amt AS sales_amt, " +
          s"cnt AS cnt FROM c1_${k}_state_agg")),
    )
    Workload("c1", "Compute 1", "33, 56, 60, 61", perChannel ++ cross)
  }

  // ------------------------------------------------------------- Compute 2
  /** Frequent items and best customers across channels
    * (TPC-DS q14, q23) — 16 nodes.
    */
  val compute2: Workload = {
    // Per-item / per-customer expected row counts differ per channel; the
    // thresholds sit near each channel's median so the filters are selective
    // but non-degenerate at every scale factor.
    val freqThreshold = Map("store" -> 18, "catalog" -> 9, "web" -> 4)
    val qtyThreshold  = Map("store" -> 180, "catalog" -> 90, "web" -> 40)
    val perChannel = Channels.flatMap { c =>
      val k = c.key
      val recentProj =
        s"""SELECT ${c.item} AS item_sk, ${c.cust} AS customer_sk,
           |       ${c.qty} AS quantity, ${c.price} AS ext_sales_price
           |FROM ${c.table} JOIN date_dim ON ${c.date} = d_date_sk""".stripMargin
      Vector(
        MvSpec(s"c2_${k}_recent",
          s"$recentProj\nWHERE d_year = 2000",
          Some(s"$recentProj\nWHERE ${c.yearCol} = 2000"),
          partitionYears = Map(c.table -> Seq(2000))),
        MvSpec(s"c2_${k}_freq_items",
          s"""SELECT item_sk AS item_sk, COUNT(*) AS cnt
             |FROM c2_${k}_recent GROUP BY item_sk
             |HAVING COUNT(*) > ${freqThreshold(k)}""".stripMargin),
        MvSpec(s"c2_${k}_best_cust",
          s"""SELECT customer_sk AS customer_sk, SUM(CAST(quantity AS BIGINT)) AS qty_sum
             |FROM c2_${k}_recent GROUP BY customer_sk
             |HAVING SUM(CAST(quantity AS BIGINT)) > ${qtyThreshold(k)}""".stripMargin),
        MvSpec(s"c2_${k}_filtered",
          s"""SELECT r.customer_sk AS customer_sk,
             |       SUM(CAST(r.ext_sales_price AS $Dec)) AS sales_amt, COUNT(*) AS cnt
             |FROM c2_${k}_recent r
             |  JOIN c2_${k}_freq_items f ON r.item_sk = f.item_sk
             |  JOIN c2_${k}_best_cust b ON r.customer_sk = b.customer_sk
             |GROUP BY r.customer_sk""".stripMargin),
      )
    }
    val cross = Vector(
      MvSpec("c2_cross_items",
        """SELECT s.item_sk AS item_sk
          |FROM c2_store_freq_items s
          |  JOIN c2_catalog_freq_items c ON s.item_sk = c.item_sk
          |  JOIN c2_web_freq_items w ON s.item_sk = w.item_sk""".stripMargin),
      MvSpec("c2_all_filtered",
        unionChannels(k =>
          s"SELECT '$k' AS channel, customer_sk AS customer_sk, sales_amt AS sales_amt, " +
          s"cnt AS cnt FROM c2_${k}_filtered")),
      MvSpec("c2_cross_best",
        s"""SELECT customer_sk AS customer_sk, SUM(CAST(sales_amt AS $Dec)) AS total_sales,
           |       SUM(CAST(cnt AS BIGINT)) AS total_cnt
           |FROM c2_all_filtered GROUP BY customer_sk""".stripMargin),
      MvSpec("c2_final_report",
        s"""SELECT c.c_state AS c_state, SUM(CAST(b.total_sales AS $Dec)) AS state_sales,
           |       COUNT(*) AS cust_cnt
           |FROM c2_cross_best b JOIN customer c ON b.customer_sk = c.c_customer_sk
           |GROUP BY c.c_state""".stripMargin),
    )
    Workload("c2", "Compute 2", "14, 23", perChannel ++ cross)
  }

  /** All five workloads in Table III order. */
  val all: Vector[Workload] = Vector(io1, io2, io3, compute1, compute2)
}
