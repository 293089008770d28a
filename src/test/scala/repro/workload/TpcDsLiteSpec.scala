package repro.workload

import java.nio.file.Files
import java.security.MessageDigest
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.functions.{col, count, hash, lit, sum}
import repro.SparkSpec

class TpcDsLiteSpec extends SparkSpec {

  lazy val ds = TestData.regular(spark)
  lazy val dsp = TestData.partitioned(spark)

  /** Per table of `d`: the column list, the row count, an order-independent
    * sum of the row hashes and the partition directories.
    */
  private def tableDigests(d: Dataset): Seq[String] = TpcDsLite.AllTables.map { t =>
    val df = spark.read.parquet(d.tablePath(t))
    val r = df.agg(count(lit(1)), sum(hash(df.columns.toSeq.map(col): _*).cast("long"))).head()
    val parts = {
      val s = Files.list(d.dir.resolve(t))
      try s.iterator.asScala.filter(Files.isDirectory(_)).map(_.getFileName.toString).toVector.sorted
      finally s.close()
    }
    s"$t ${df.columns.mkString(",")} ${r.getLong(0)} ${r.getLong(1)} ${parts.mkString(",")}"
  }

  test("generated tables are unchanged bit for bit") {
    val md = MessageDigest.getInstance("SHA-256")
    Seq(ds, dsp).foreach(d => tableDigests(d).foreach(line => md.update((line + "\n").getBytes("UTF-8"))))
    val hex = md.digest().map(b => f"$b%02x").mkString
    assert(hex == "c32957e978a79f9b80a4a0cfa67deb5f5605234d724017ed51d4211b5a276938")
  }

  test("generated data do not depend on the Spark parallelism") {
    // spark.range splits into this many partitions unless told otherwise;
    // by default it is the host's core count.
    val key = "spark.sql.leafNodeDefaultParallelism"
    def generate(par: Int): Seq[Dataset] = {
      spark.conf.set(key, par.toString)
      try Seq(false, true).map { p =>
        TpcDsLite.generate(spark, TestData.dir.resolve(s"par$par-$p"), TestData.SF, p)
      } finally spark.conf.unset(key)
    }
    val (one, three) = (generate(1), generate(3))
    one.zip(three).foreach { case (a, b) => assert(tableDigests(a) == tableDigests(b), a.name) }
    assert(one.head.tableBytes == three.head.tableBytes)
  }

  test("all tables exist with bytes on disk") {
    TpcDsLite.AllTables.foreach { t =>
      assert(ds.tableBytes(t) > 0, s"$t empty")
    }
  }

  test("row counts scale with the scale factor") {
    val small = TpcDsLite.table(spark, "store_sales", 0.001).count()
    val large = TpcDsLite.table(spark, "store_sales", 0.002).count()
    assert(large == 2 * small)
  }

  test("date_dim spans 1998-2002 with one row per day") {
    val dd = TpcDsLite.dateDim(spark)
    assert(dd.count() == TpcDsLite.NDays)
    val years = dd.select("d_year").distinct().collect().map(_.getInt(0)).sorted
    assert(years.toSeq == (1998 to 2002))
  }

  test("date_dim months and quarters are consistent") {
    import org.apache.spark.sql.functions._
    val dd = TpcDsLite.dateDim(spark)
    assert(dd.filter(col("d_qoy") =!= floor((col("d_moy") + 2) / 3)).count() == 0)
  }

  test("generators are deterministic") {
    val a = TpcDsLite.table(spark, "store_sales", 0.001).collect().map(_.toString).sorted
    val b = TpcDsLite.table(spark, "store_sales", 0.001).collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("sales foreign keys land in dimension ranges") {
    import org.apache.spark.sql.functions._
    val ss = TpcDsLite.table(spark, "store_sales", TestData.SF)
    val nItems = TpcDsLite.item(spark, TestData.SF).count()
    val bad = ss.filter(col("ss_item_sk") < 1 || col("ss_item_sk") > nItems)
      .union(ss.filter(col("ss_sold_date_sk") < 1 || col("ss_sold_date_sk") > TpcDsLite.NDays))
    assert(bad.count() == 0)
  }

  test("partitioned dataset has per-year partitions for every sales table") {
    TpcDsLite.SalesTables.foreach { t =>
      val parts = dsp.partitionBytes(t)
      assert(parts.keySet == (1998 to 2002).toSet, s"$t partitions: ${parts.keySet}")
      assert(parts.values.forall(_ > 0), s"$t has an empty partition")
    }
  }

  test("effectiveReadBytes prunes partitions only on the partitioned dataset") {
    val full = ds.effectiveReadBytes("store_sales", Some(Seq(2000)))
    assert(full == ds.tableBytes("store_sales"))
    val pruned = dsp.effectiveReadBytes("store_sales", Some(Seq(2000)))
    assert(pruned == dsp.partitionBytes("store_sales")(2000))
    assert(pruned < dsp.tableBytes("store_sales"))
  }

  test("partitioned sales rows equal regular sales rows") {
    val reg = spark.read.parquet(ds.tablePath("web_sales")).count()
    val part = spark.read.parquet(dsp.tablePath("web_sales")).count()
    assert(reg == part)
  }

  test("partition year column matches the date dimension") {
    val ws = spark.read.parquet(dsp.tablePath("web_sales"))
    ws.createOrReplaceTempView("ws_check")
    TpcDsLite.dateDim(spark).createOrReplaceTempView("dd_check")
    val bad = spark.sql(
      """SELECT COUNT(*) AS c FROM ws_check JOIN dd_check ON ws_sold_date_sk = d_date_sk
        |WHERE ws_sold_year <> d_year""".stripMargin).collect()(0).getLong(0)
    assert(bad == 0)
  }

  test("unknown table name is rejected") {
    assertThrows[IllegalArgumentException](TpcDsLite.table(spark, "nope", 0.01))
  }

  test("registerViews exposes every base table to SQL") {
    TpcDsLite.registerViews(spark, ds)
    TpcDsLite.AllTables.foreach { t =>
      assert(spark.sql(s"SELECT * FROM $t LIMIT 1").collect().nonEmpty, s"$t view empty")
    }
  }

  test("registerViews starts no Spark job") {
    Seq(ds, dsp).foreach { d =>
      val (_, jobs) = withJobs(TpcDsLite.registerViews(spark, d))
      assert(jobs.size == 0, d.name)
    }
  }

  test("registerViews binds every table with the schema Spark infers") {
    Seq(ds, dsp).foreach { d =>
      TpcDsLite.registerViews(spark, d)
      TpcDsLite.AllTables.foreach { t =>
        assert(spark.table(t).schema == spark.read.parquet(d.tablePath(t)).schema, s"${d.name} $t")
      }
    }
  }
}
