package repro.jobs

import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.Methods
import repro.exec.{Controller, ExecConfig, NfsModel}
import repro.workload.{Metadata, TpcDsLite, Workloads}

/** spark-submit entrypoint: run one workload with one method and print the
  * end-to-end report.
  *
  * Usage: RunWorkload [workloadKey=io1] [method=sc] [sf=0.02] [memPct=1.6] [partitioned=false]
  * Methods: no-opt | greedy | random | ratio | lru | sc. `memPct` is the
  * paper-side Memory Catalog label (see `Methods.budget`).
  */
object RunWorkload {
  def main(args: Array[String]): Unit = {
    val wKey   = args.lift(0).getOrElse("io1")
    val method = args.lift(1).getOrElse("sc")
    val sf     = args.lift(2).map(_.toDouble).getOrElse(0.02)
    val memPct = args.lift(3).map(_.toDouble).getOrElse(1.6)
    val part   = args.lift(4).exists(_.toBoolean)

    val spark = SparkSession.builder().appName("sc-run-workload")
      .config(Controller.SparkSettings).getOrCreate()
    val workload = Workloads.all.find(_.key == wKey)
      .getOrElse(sys.error(s"unknown workload $wKey"))

    val dir = Files.createTempDirectory("screpro")
    val dataset = TpcDsLite.generate(spark, dir.resolve("data"), sf, part)
    val nfs = NfsModel.scaledTo(dataset.totalBytes)
    val budget = Methods.budget(dataset.totalBytes, memPct)
    val controller = new Controller(spark, dataset, ExecConfig(budget, Some(nfs), dir.resolve("mv")))

    val cal = Metadata.calibrate(spark, dataset, workload, ExecConfig(0L, None, dir.resolve("cal")))
    val dag = Metadata.dag(workload, cal.sizes, nfs, Methods.MemCreateMs)

    val report = Methods.run(method, controller, workload, dag, budget, cal.sizes)
    println(f"workload=${report.workload} dataset=${report.dataset} method=${report.method} " +
      f"endToEnd=${report.endToEndMs / 1000}%.2fs read=${report.tableReadMs / 1000}%.2fs " +
      f"compute=${report.computeMs / 1000}%.2fs writeFg=${report.writeForegroundMs / 1000}%.2fs " +
      f"peakCatalog=${report.peakCatalogBytes} budget=$budget")
    spark.stop()
  }
}
