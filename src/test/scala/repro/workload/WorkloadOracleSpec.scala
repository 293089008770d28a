package repro.workload

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}

/** Result-correctness of every MV statement in all five workloads against
  * DuckDB: one oracle test per node (103 total), plus partitioned-variant
  * checks for the extract nodes. Each node's Spark result is compared to
  * DuckDB running the identical SQL over the node's actual inputs (parent
  * MV outputs and base tables).
  */
class WorkloadOracleSpec extends SparkSpec {

  private lazy val ds = TestData.regular(spark)
  private lazy val dsp = TestData.partitioned(spark)

  private lazy val baseDfs: Map[String, DataFrame] = {
    TpcDsLite.registerViews(spark, ds)
    TpcDsLite.AllTables.map(t => t -> spark.read.parquet(ds.tablePath(t))).toMap
  }
  private lazy val basePartDfs: Map[String, DataFrame] =
    TpcDsLite.AllTables.map(t => t -> spark.read.parquet(dsp.tablePath(t))).toMap

  /** All node outputs of a workload on the regular dataset, computed once
    * (lazily) in topological order with temp views registered as we go.
    */
  private def results(w: Workload): Map[String, DataFrame] = synchronized {
    baseDfs.foreach { case (t, df) => df.createOrReplaceTempView(t) }
    w.mvs.foldLeft(Map.empty[String, DataFrame]) { (acc, mv) =>
      val df = spark.sql(mv.sql)
      df.createOrReplaceTempView(mv.name)
      acc + (mv.name -> df)
    }
  }

  private val resultCache = scala.collection.mutable.Map.empty[String, Map[String, DataFrame]]
  private def resultsFor(w: Workload): Map[String, DataFrame] =
    resultCache.getOrElseUpdate(w.key, results(w))

  for (w <- Workloads.all; mv <- w.mvs) {
    test(s"${w.key}/${mv.name} matches DuckDB") {
      val rs = resultsFor(w)
      val inputs =
        mv.parents.map(p => p -> rs(p)) ++ mv.baseTables.map(t => t -> baseDfs(t))
      Oracle.assertEquivalent(rs(mv.name), mv.sql, inputs: _*)
    }
  }

  test("oracle rejects a wrong aggregate of a TPC-DS-lite MV") {
    val mv = Workloads.io1.byName("io1_store_cat_profit")
    val rs = resultsFor(Workloads.io1)
    val wrong = rs(mv.name).withColumn("cnt", col("cnt") + 1)
    assert(!wrong.isEmpty)
    assertThrows[IllegalArgumentException](
      Oracle.assertEquivalent(wrong, mv.sql, mv.parents.map(p => p -> rs(p)): _*))
  }

  // Partitioned-variant extracts: the same oracle check with the
  // partitioned base tables (the year column is a real input column there).
  for (w <- Workloads.all; mv <- w.mvs if mv.sqlPartitioned.isDefined) {
    test(s"${w.key}/${mv.name} partitioned variant matches DuckDB") {
      basePartDfs.foreach { case (t, df) => df.createOrReplaceTempView(t) }
      val df = spark.sql(mv.sqlPartitioned.get)
      val inputs = mv.baseTables.map(t => t -> basePartDfs(t))
      Oracle.assertEquivalent(df, mv.sqlPartitioned.get, inputs: _*)
      // Restore regular views for subsequent tests.
      baseDfs.foreach { case (t, d) => d.createOrReplaceTempView(t) }
    }
  }

  // Cross-dataset invariant: extract nodes with a year filter on both
  // variants produce identical rows on TPC-DS and TPC-DSp.
  for (c <- TpcDsLite.Channels) {
    test(s"io2 ${c.key} extract equal across TPC-DS and TPC-DSp") {
      val mv = Workloads.io2.byName(s"io2_${c.key}_extract")
      baseDfs.foreach { case (t, d) => d.createOrReplaceTempView(t) }
      val reg = spark.sql(mv.sql).collect().map(_.toString).sorted
      basePartDfs.foreach { case (t, d) => d.createOrReplaceTempView(t) }
      val part = spark.sql(mv.sqlPartitioned.get).collect().map(_.toString).sorted
      baseDfs.foreach { case (t, d) => d.createOrReplaceTempView(t) }
      assert(reg.sameElements(part))
    }
  }
}
