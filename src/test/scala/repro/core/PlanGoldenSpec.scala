package repro.core

import java.security.MessageDigest
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.exec.NfsModel
import repro.workload.{DagGen, Metadata, Workloads}

/** Golden plans: SHA-256 digests of optimizer output on a fixed corpus,
  * recorded before the residency model was unified. Any change to the
  * alive-set rows (including their order, which MKP's tie-breaks see), the
  * baselines' flag sets, the S/C plans or the peak/average memory of those
  * plans changes a digest.
  *
  * Corpus: 50 DagGen DAGs per size 25/50/75/100 at 1, 4 and 16 GB (S/C at
  * 16 GB only), plus the five workloads' DAGs with deterministic synthetic
  * sizes and `Metadata.speedupScores` scores at four budgets.
  */
class PlanGoldenSpec extends AnyFunSuite {

  private val GB = 1L << 30
  private val budgets = Seq(1 * GB, 4 * GB, 16 * GB)
  private lazy val dags: Seq[Dag] = for {
    n <- Seq(25, 50, 75, 100)
    s <- 0 until 50
  } yield DagGen.generate(DagGen.Params(n, seed = s)).dag

  private final class Digest {
    private val md = MessageDigest.getInstance("SHA-256")
    def add(x: Any): Unit = md.update((x.toString + "\n").getBytes("UTF-8"))
    def hex: String = md.digest().map(b => f"$b%02x").mkString
  }

  private def ids(s: Iterable[Int]): String = s.toSeq.sorted.mkString(",")

  /** Rows in order, each row's members sorted. */
  private def rows(d: Dag, m: Long): String =
    Constraints.constraintSets(d, d.topological, m).map(ids).mkString(";")

  private def memory(d: Dag, p: Plan): String =
    s"${Plan.peakMemoryUsage(d, p)} ${java.lang.Double.toString(Plan.averageMemoryUsage(d, p))}"

  private def baselines(d: Dag, m: Long, out: Digest): Unit = {
    val o = d.topological
    Seq(NodeBaselines.greedy(d, m, o), NodeBaselines.random(d, m, o, seed = 7),
      NodeBaselines.ratio(d, m, o)).foreach { u =>
      out.add(ids(u)); out.add(memory(d, Plan(o, u)))
    }
  }

  private def sc(d: Dag, m: Long, out: Digest): Unit = {
    val r = AlternatingOpt.solve(d, m)
    out.add(s"${r.plan.order.mkString(",")} | ${ids(r.plan.flagged)} | ${r.iterations}")
    out.add(memory(d, r.plan))
  }

  test("DagGen constraint rows are unchanged") {
    val out = new Digest
    for (d <- dags; m <- budgets) out.add(rows(d, m))
    assert(out.hex == "356f179e0039a56af0935c30a282a7f216f0b851630f78e6871617e165c9c4b4")
  }

  test("DagGen Greedy, Random and Ratio flag sets and their memory are unchanged") {
    val out = new Digest
    for (d <- dags; m <- budgets) baselines(d, m, out)
    assert(out.hex == "e635f8f389b51a4b95d9b8e28d2e2705c4cb788e5f22176bff9ac1c1630120c5")
  }

  test("DagGen S/C plans at 16 GB are unchanged") {
    val out = new Digest
    dags.foreach(d => sc(d, 16 * GB, out))
    assert(out.hex == "c8eb663d310f18e872a764b708dc9647daecec5c552b162594d10fcbe075e0a6")
  }

  test("workload plans with synthetic sizes are unchanged") {
    val nfs = NfsModel.scaledTo(2 * GB, 8.0)
    val out = new Digest
    Workloads.all.zipWithIndex.foreach { case (w, wi) =>
      val rnd = new Random(17 + wi)
      val sizes = w.mvs.map(mv => mv.name -> (1L << 20) * (1 + rnd.nextInt(200))).toMap
      val d = w.dag(sizes, Metadata.speedupScores(w, sizes, nfs, 400.0))
      val total = sizes.values.sum
      Seq(20, 10, 5, 2).foreach { frac =>
        val m = total / frac
        out.add(rows(d, m)); baselines(d, m, out); sc(d, m, out)
      }
    }
    assert(out.hex == "cc57231916baf338b498493e25e9c515a118dbb010c3791cb84b40707fa47ede")
  }

  test("DagGen and workload speedup scores are unchanged bit for bit") {
    val out = new Digest
    for (d <- dags; i <- 0 until d.n) out.add(java.lang.Double.toString(d.speedup(i)))
    for {
      dataset <- Seq(256L << 20, 2 * GB, 16 * GB)
      scanSeconds <- Seq(8.0, 10.0)
      memCreateMs <- Seq(0.0, 400.0)
    } {
      val nfs = NfsModel.scaledTo(dataset, scanSeconds)
      Workloads.all.zipWithIndex.foreach { case (w, wi) =>
        val rnd = new Random(17 + wi)
        val sizes = w.mvs.map(mv => mv.name -> (1L << 20) * (1 + rnd.nextInt(200))).toMap
        val scores = Metadata.speedupScores(w, sizes, nfs, memCreateMs)
        w.mvs.foreach(mv => out.add(s"${mv.name} ${java.lang.Double.toString(scores(mv.name))}"))
      }
    }
    assert(out.hex == "98e46966ba7526a61fb6f50ac40d4e9183939c049d7be177860e710cd3fd43a1")
  }
}
