package repro.workload

import org.apache.spark.sql.SparkSession
import repro.core.Dag
import repro.exec.{Controller, ExecConfig, NfsModel, RunReport}

/** Execution metadata (§ III-A): per-node output sizes and speedup scores
  * observed from a past (calibration) refresh run, exactly as S/C gathers
  * them from DBMS-side metrics of recurrent pipeline runs.
  */
object Metadata {

  /** A past no-opt refresh: the source of the calibrated sizes. */
  final case class Calibration(report: RunReport) {
    def sizes: Map[String, Long] = report.sizes
  }

  /** Run the workload once, unoptimized, to observe sizes and times. */
  def calibrate(spark: SparkSession, dataset: Dataset, workload: Workload,
                cfg: ExecConfig): Calibration =
    Calibration(new Controller(spark, dataset, cfg).runBaseline(workload))

  /** Speedup scores t_i (§ IV) from calibrated sizes, by
    * `NfsModel.speedupScore`. `memCreateMs` is the paper's `time(create v_i
    * in memory)`: in this substrate, filling the cached DataFrame during
    * the node's Parquet write.
    */
  def speedupScores(workload: Workload, sizes: Map[String, Long], nfs: NfsModel,
                    memCreateMs: Double = 0.0): Map[String, Double] = {
    val sdag = workload.structuralDag
    workload.mvs.zipWithIndex.map { case (mv, i) =>
      mv.name -> nfs.speedupScore(sdag.children(i).size, sizes(mv.name), memCreateMs)
    }.toMap
  }

  /** The optimizer-facing DAG for a calibrated workload. */
  def dag(workload: Workload, sizes: Map[String, Long], nfs: NfsModel,
          memCreateMs: Double = 0.0): Dag =
    workload.dag(sizes, speedupScores(workload, sizes, nfs, memCreateMs))
}
