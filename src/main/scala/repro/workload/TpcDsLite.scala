package repro.workload

import java.nio.file.{Files, Path}
import java.util.concurrent.Executors
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** A generated TPC-DS-shaped dataset on local Parquet storage.
  *
  * @param name           "TPC-DS" or "TPC-DSp"
  * @param dir            directory holding one sub-dir of Parquet per table
  * @param partitioned    true for the date-partitioned variant (TPC-DSp)
  * @param tableBytes     on-disk bytes of each table
  * @param partitionBytes for partitioned sales tables: table → year → bytes
  * @param schemas        Spark schema of each table as Parquet reads it back,
  *                       partition column last
  */
final case class Dataset(
    name: String,
    dir: Path,
    partitioned: Boolean,
    tableBytes: Map[String, Long],
    partitionBytes: Map[String, Map[Int, Long]],
    schemas: Map[String, StructType],
) {
  def totalBytes: Long = tableBytes.values.sum
  def tablePath(table: String): String = dir.resolve(table).toString

  /** Bytes a statement reads from `table`, honoring partition pruning. */
  def effectiveReadBytes(table: String, years: Option[Seq[Int]]): Long = years match {
    case Some(ys) if partitioned && partitionBytes.contains(table) =>
      ys.map(y => partitionBytes(table).getOrElse(y, 0L)).sum
    case _ => tableBytes(table)
  }

  /** Bytes `mv` reads from each of its base tables, in `baseTables` order. */
  def baseReadBytes(mv: MvSpec): Vector[Long] =
    mv.baseTables.map(t => effectiveReadBytes(t, mv.partitionYears.get(t)))
}

/** Synthetic TPC-DS-shaped generator (§ VI-A), deterministic in SF alone.
  *
  * Substitutes dsdgen (offline build, miniature scale): three sales fact
  * tables, date_dim spanning 1998–2002, item, customer and store dimensions.
  * SF 0.01 is ~1.8 MB of Parquet; tests use SF 0.002, benches SF 0.01. The
  * date-partitioned variant mirrors the paper's TPC-DSp: the sales tables
  * are partitioned by sold year (`*_sold_year`), enabling real partition
  * pruning in Spark and partition-aware read-cost modeling.
  */
object TpcDsLite {

  /** One sales channel (§ VI-A): its fact table, whose column names all
    * derive from `prefix` but for the customer key, and its generator
    * inputs.
    *
    * @param key       channel name, as used in workload MV names
    * @param cust      customer foreign-key column
    * @param rowsPerSf fact rows at SF 1
    * @param seed      first of the generator's `rand` seeds for the table
    */
  final case class Channel(key: String, table: String, prefix: String, cust: String,
                           rowsPerSf: Long, seed: Long) {
    def date: String   = s"${prefix}_sold_date_sk"
    def item: String   = s"${prefix}_item_sk"
    def qty: String    = s"${prefix}_quantity"
    def price: String  = s"${prefix}_ext_sales_price"
    def profit: String = s"${prefix}_net_profit"
    /** Sold-year column the partitioned variant (TPC-DSp) adds and partitions by. */
    def yearCol: String = s"${prefix}_sold_year"
  }

  val Channels: Vector[Channel] = Vector(
    Channel("store", "store_sales", "ss", "ss_customer_sk", 4_000_000L, 23),
    Channel("catalog", "catalog_sales", "cs", "cs_bill_customer_sk", 2_000_000L, 29),
    Channel("web", "web_sales", "ws", "ws_bill_customer_sk", 1_000_000L, 31),
  )

  val SalesTables: Vector[String] = Channels.map(_.table)
  val DimTables: Vector[String]   = Vector("date_dim", "item", "customer", "store")
  val AllTables: Vector[String]   = SalesTables ++ DimTables

  val FirstYear = 1998
  val LastYear  = 2002
  /** Days in date_dim: 1998-01-01 .. 2002-12-31 (fixed, like TPC-DS). */
  val NDays = 1826

  private val NCustomerPerSf = 200_000L
  private val NItemPerSf     =  40_000L

  /** Partitions of every table. `rand(seed)` restarts in each partition, so a
    * fixed count keeps rows and files independent of the host's cores (4 was
    * a 4-core host's default).
    */
  private val Partitions = 4

  /** Threads that write tables at once in `generate`. */
  private val WriterThreads = 4

  private def n(base: Long, sf: Double): Long = math.max(10L, (base * sf).toLong)
  private def nStore(sf: Double): Long = math.max(4L, (50 * sf).toLong)

  def dateDim(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.range(1, NDays + 1, 1, Partitions).toDF("d_date_sk").select(
      $"d_date_sk",
      date_add(lit(s"$FirstYear-01-01").cast(DateType), ($"d_date_sk" - 1).cast(IntegerType))
        .cast(StringType) as "d_date",
    ).select(
      $"d_date_sk", $"d_date",
      year(col("d_date").cast(DateType))                          as "d_year",
      month(col("d_date").cast(DateType))                         as "d_moy",
      quarter(col("d_date").cast(DateType))                       as "d_qoy",
      dayofweek(col("d_date").cast(DateType))                     as "d_dow",
    )
  }

  def item(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    val seed = 11L
    spark.range(1, n(NItemPerSf, sf) + 1, 1, Partitions).toDF("i_item_sk").select(
      $"i_item_sk",
      concat(lit("ITEM"), $"i_item_sk")                           as "i_item_id",
      concat(lit("Category"), ($"i_item_sk" % 10))                as "i_category",
      concat(lit("Class"), ($"i_item_sk" % 20))                   as "i_class",
      concat(lit("Brand"), (rand(seed) * 50 + 1).cast(IntegerType)) as "i_brand",
      (rand(seed + 1) * 100 + 1).cast(IntegerType)                as "i_manufact_id",
      round(rand(seed + 2) * 99 + 1, 2)                           as "i_current_price",
    )
  }

  def customer(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    val seed = 13L
    spark.range(1, n(NCustomerPerSf, sf) + 1, 1, Partitions).toDF("c_customer_sk").select(
      $"c_customer_sk",
      concat(lit("CUST"), $"c_customer_sk")                       as "c_customer_id",
      concat(lit("ST"), (rand(seed) * 20).cast(IntegerType))      as "c_state",
      (rand(seed + 1) * 60 + 1940).cast(IntegerType)              as "c_birth_year",
    )
  }

  def store(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    val seed = 17L
    spark.range(1, nStore(sf) + 1, 1, Partitions).toDF("s_store_sk").select(
      $"s_store_sk",
      concat(lit("STORE"), $"s_store_sk")                         as "s_store_id",
      concat(lit("ST"), (rand(seed) * 10).cast(IntegerType))      as "s_state",
    )
  }

  /** The fact table of channel `c`; store sales also carry `ss_store_sk`. */
  def sales(spark: SparkSession, c: Channel, sf: Double): DataFrame = {
    val seed = c.seed
    val base = spark.range(0, n(c.rowsPerSf, sf), 1, Partitions).select(
      (rand(seed)     * NDays + 1).cast(LongType)                 as c.date,
      (rand(seed + 1) * n(NItemPerSf, sf) + 1).cast(LongType)     as c.item,
      (rand(seed + 2) * n(NCustomerPerSf, sf) + 1).cast(LongType) as c.cust,
      (rand(seed + 3) * 100 + 1).cast(IntegerType)                as c.qty,
      round(rand(seed + 4) * 500 + 1, 2)                          as s"${c.prefix}_sales_price",
      round(rand(seed + 5) * 25000 + 50, 2)                       as c.price,
      round(rand(seed + 6) * 12000 - 3000, 2)                     as c.profit,
    )
    if (c.key == "store") base.withColumn(s"${c.prefix}_store_sk",
      (rand(seed + 7) * nStore(sf) + 1).cast(LongType))
    else base
  }

  def table(spark: SparkSession, name: String, sf: Double): DataFrame = name match {
    case "date_dim"      => dateDim(spark)
    case "item"          => item(spark, sf)
    case "customer"      => customer(spark, sf)
    case "store"         => store(spark, sf)
    case other           => Channels.find(_.table == other).map(sales(spark, _, sf))
      .getOrElse(throw new IllegalArgumentException(s"unknown table $other"))
  }

  /** Total bytes of the regular files under `p`; 0 when `p` is missing. */
  private[repro] def dirBytes(p: Path): Long = {
    if (!Files.exists(p)) 0L
    else {
      val s = Files.walk(p)
      try s.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum
      finally s.close()
    }
  }

  /** Generate the dataset under `dir`, writing each table as Parquet.
    * For `partitioned = true` the three sales tables gain their channel's
    * `yearCol` and are written `partitionBy` that column (TPC-DSp).
    *
    * The tables are independent and each is generated per partition, so
    * they are written concurrently, by a few threads, with the same files
    * as one after another. Each schema is the written DataFrame's, nullable
    * as Parquet reads it back; the partition column is already last.
    */
  def generate(spark: SparkSession, dir: Path, sf: Double, partitioned: Boolean): Dataset = {
    Files.createDirectories(dir)
    def write(t: String): StructType = {
      val (df, yearCol) = Channels.find(c => partitioned && c.table == t) match {
        case Some(c) =>
          val dd = dateDim(spark).select(col("d_date_sk") as "yd_sk", col("d_year") as c.yearCol)
          (sales(spark, c, sf).join(dd, col(c.date) === col("yd_sk"), "left").drop("yd_sk"), Some(c.yearCol))
        case None => (table(spark, t, sf), None)
      }
      val w = df.write.mode("overwrite")
      yearCol.fold(w)(w.partitionBy(_)).parquet(dir.resolve(t).toString)
      StructType(df.schema.map(_.copy(nullable = true)))
    }
    val pool = Executors.newFixedThreadPool(WriterThreads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    val schemas =
      try Await.result(Future.traverse(AllTables)(t => Future(t -> write(t))), Duration.Inf).toMap
      finally pool.shutdown()
    val tableBytes = AllTables.map(t => t -> dirBytes(dir.resolve(t))).toMap
    val partBytes =
      if (!partitioned) Map.empty[String, Map[Int, Long]]
      else Channels.map { c =>
        c.table -> (FirstYear to LastYear).map { y =>
          y -> dirBytes(dir.resolve(c.table).resolve(s"${c.yearCol}=$y"))
        }.toMap
      }.toMap
    Dataset(if (partitioned) "TPC-DSp" else "TPC-DS", dir, partitioned, tableBytes, partBytes, schemas)
  }

  /** Register every base table of `ds` as a Spark temp view, bound with its
    * known schema: no Spark job infers it again.
    */
  def registerViews(spark: SparkSession, ds: Dataset): Unit =
    AllTables.foreach { t =>
      spark.read.schema(ds.schemas(t)).parquet(ds.tablePath(t)).createOrReplaceTempView(t)
    }
}
