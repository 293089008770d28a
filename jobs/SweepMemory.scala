package repro.jobs

import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.Methods
import repro.exec.{Controller, ExecConfig, NfsModel}
import repro.workload.{Metadata, TpcDsLite, Workloads}

/** spark-submit entrypoint for the Table IV experiment: sweep the Memory
  * Catalog size over the paper's 0–6.4 % labels and report TableRead /
  * Compute / Query latency totals over all five workloads.
  *
  * Usage: SweepMemory [sf=0.02] [partitioned=false]
  */
object SweepMemory {
  def main(args: Array[String]): Unit = {
    val sf   = args.lift(0).map(_.toDouble).getOrElse(0.02)
    val part = args.lift(1).exists(_.toBoolean)

    val spark = SparkSession.builder.appName("sc-sweep-memory")
      .config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()
    val dir = Files.createTempDirectory("screpro")
    val dataset = TpcDsLite.generate(spark, dir.resolve("data"), sf, part)
    val nfs = NfsModel.scaledTo(dataset.totalBytes)

    val calCfg = ExecConfig(0L, Some(nfs), dir.resolve("cal"))
    val cals = Workloads.all.map(w => w -> Metadata.calibrate(spark, dataset, w, calCfg))

    println(f"${"M%"}%8s ${"read(s)"}%10s ${"compute(s)"}%12s ${"query(s)"}%10s")
    Seq(0.0, 0.4, 0.8, 1.6, 3.2, 6.4).foreach { pct =>
      val budget = Methods.budget(dataset.totalBytes, pct)
      val cfg = ExecConfig(budget, Some(nfs), dir.resolve(s"mv$pct"))
      val controller = new Controller(spark, dataset, cfg)
      val reports = cals.map { case (w, cal) =>
        if (pct == 0.0) controller.runBaseline(w, cal.sizes)
        else {
          val dag = Metadata.dag(w, cal.sizes, nfs, Methods.MemCreateMs)
          controller.run(w, Methods.plan("sc", dag, budget), cal.sizes)
        }
      }
      val read = reports.map(_.tableReadMs).sum / 1000
      val comp = reports.map(_.computeMs).sum / 1000
      println(f"$pct%8.1f $read%10.2f $comp%12.2f ${read + comp}%10.2f")
    }
    spark.stop()
  }
}
