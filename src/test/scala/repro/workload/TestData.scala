package repro.workload

import java.nio.file.{Files, Path}
import java.util.Comparator
import org.apache.spark.sql.SparkSession

/** Shared miniature datasets for Spark-backed suites: generated once per
  * test JVM at SF small enough for the DuckDB oracle (store_sales ≈ 8 k
  * rows) and reused by every suite.
  */
object TestData {
  val SF: Double = 0.002

  /** The one directory of this JVM's datasets and run outputs, deleted when
    * the JVM exits. Nothing under it is deleted earlier: suites share the
    * lazily built datasets and outputs.
    */
  lazy val root: Path = {
    val p = Files.createTempDirectory("sc-")
    sys.addShutdownHook {
      val s = Files.walk(p)
      try s.sorted(Comparator.reverseOrder[Path]()).forEach(f => Files.deleteIfExists(f))
      finally s.close()
    }
    p
  }

  lazy val dir: Path = Files.createDirectories(root.resolve("testdata"))

  private var regularCache: Option[Dataset] = None
  private var partitionedCache: Option[Dataset] = None

  def regular(spark: SparkSession): Dataset = synchronized {
    regularCache.getOrElse {
      val d = TpcDsLite.generate(spark, dir.resolve("regular"), SF, partitioned = false)
      regularCache = Some(d); d
    }
  }

  def partitioned(spark: SparkSession): Dataset = synchronized {
    partitionedCache.getOrElse {
      val d = TpcDsLite.generate(spark, dir.resolve("partitioned"), SF, partitioned = true)
      partitionedCache = Some(d); d
    }
  }

  /** Fresh output directory for a controller run. */
  def freshOutDir(tag: String): Path = Files.createTempDirectory(root, s"out-$tag")
}
