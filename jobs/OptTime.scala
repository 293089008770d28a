package repro.jobs

import repro.Methods
import repro.core.AlternatingOpt
import repro.workload.DagGen

/** spark-submit entrypoint for the Fig 13 experiment: optimization wall time
  * of each method pair on generated DAGs of 25–100 nodes.
  *
  * Usage: OptTime [dagsPerSize=50]
  */
object OptTime {
  def main(args: Array[String]): Unit = {
    val perSize = args.lift(0).map(_.toInt).getOrElse(50)
    val budget = 16L << 30 // 16 GB catalog vs 100 GB-scale synthetic tables

    println(f"${"nodes"}%6s " + Methods.ablations.map(m => f"${m._1}%14s").mkString(" "))
    Seq(25, 50, 75, 100).foreach { n =>
      val dags = (0 until perSize).map(s => DagGen.generate(DagGen.Params(n, seed = s)).dag)
      val times = Methods.ablations.map { case (_, solvers) =>
        val t0 = System.nanoTime()
        dags.foreach(d => AlternatingOpt.solve(d, budget, solvers))
        (System.nanoTime() - t0) / 1e6 / dags.size
      }
      println(f"$n%6d " + times.map(t => f"$t%13.2fms").mkString(" "))
    }
  }
}
