package repro.sim

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BruteForce, Dag, Plan}
import repro.exec.NfsModel

class SimulatorSpec extends AnyFunSuite {

  private val cost = NfsModel(
    readBytesPerMs = 100, writeBytesPerMs = 50, latencyMs = 0, memBytesPerMs = 10000)

  // Fig 4/6 workload: MV1 feeds MV2 and MV3.
  private val fig6 = Dag.of(Seq(1000, 500, 500), Seq(1, 1, 1),
    Set((0, 1), (0, 2)))
  private val in = Simulator.Inputs(
    sizes = Vector(1000L, 500L, 500L),
    computeMs = Vector(10.0, 10.0, 10.0),
    baseReadBytes = Vector(2000L, 0L, 0L))

  test("no-flag run serializes read, compute and write") {
    val r = Simulator.simulate(fig6, Plan(Vector(0, 1, 2), Set.empty), cost, in)
    // node0: read 2000/100 + 10 + write 1000/50 = 50
    // node1: read 1000/100 + 10 + 500/50 = 30 ; node2 same
    assert(r.endToEndMs == 50 + 30 + 30)
    assert(r.tableReadMs == 20 + 10 + 10)
    assert(r.computeMs == 30)
    assert(r.writeMs == 20 + 10 + 10)
    assert(r.queryMs == r.tableReadMs + r.computeMs)
  }

  test("flagging MV1 short-circuits reads and overlaps its write (Fig 6)") {
    val r = Simulator.simulate(fig6, Plan(Vector(0, 1, 2), Set(0)), cost, in)
    // node0: read 20 + compute 10 + mem create 0.1 = 30.1; bg write 20 starts at 30.1
    // node1: mem read 0.05 + 10 + write 10 → fg ends 50.15...
    // fg total ≈ 30.1 + 20.05 + 20.05 = 70.2; bg ends at 50.1 < fg end.
    assert(r.endToEndMs < 110) // strictly better than the 110 of no-flag
    assert(math.abs(r.endToEndMs - 70.2) < 0.5)
    assert(r.tableReadMs < 41) // the two 10 ms disk reads became memory reads
  }

  test("background writes serialize on the materialization channel") {
    val d = Dag.of(Seq(1000, 1000, 10), Seq(1, 1, 1), Set((0, 2), (1, 2)))
    val i = Simulator.Inputs(Vector(1000L, 1000L, 10L), Vector(1.0, 1.0, 1.0),
      Vector(0L, 0L, 0L))
    val r = Simulator.simulate(d, Plan(Vector(0, 1, 2), Set(0, 1)), cost, i)
    // Two 20 ms bg writes share one channel: second starts when first ends.
    // fg: 1+0.1 + 1+0.1 + (0.1+0.1 mem reads) + 1 + 0.2 write ≈ 4.6
    // bg: starts at 1.1 → 21.1; second starts max(2.2, 21.1) → 41.1
    assert(math.abs(r.endToEndMs - 41.1) < 0.5)
  }

  test("end-to-end waits for the last background write") {
    val d = Dag.of(Seq(1000), Seq(1), Set.empty)
    val i = Simulator.Inputs(Vector(1000L), Vector(1.0), Vector(0L))
    val r = Simulator.simulate(d, Plan(Vector(0), Set(0)), cost, i)
    assert(r.endToEndMs >= 20.0) // the write itself
  }

  test("rejects non-topological order") {
    assertThrows[IllegalArgumentException](
      Simulator.simulate(fig6, Plan(Vector(1, 0, 2), Set.empty), cost, in))
  }

  test("flagged plans never increase simulated end-to-end time") {
    (0 until 15).foreach { s =>
      val d = repro.core.BruteForce.randomDag(8, s)
      val sizes = (0 until d.n).map(i => d.size(i) * 1000).toVector
      val i = Simulator.Inputs(sizes, Vector.fill(d.n)(5.0), Vector.fill(d.n)(1000L))
      val order = d.topological
      val none = Simulator.simulate(d, Plan(order, Set.empty), cost, i)
      val all = Simulator.simulate(d, Plan(order, (0 until d.n).toSet), cost, i)
      // Flagging can only add the in-memory creation cost (a trailing
      // flagged node's background write overlaps nothing); everything else
      // is a saving.
      val memCreate = sizes.map(cost.memMs).sum
      assert(all.endToEndMs <= none.endToEndMs + memCreate + 1e-6, s"seed $s")
    }
  }

  test("speedup score matches simulated saving for an isolated flag") {
    // Chain 0 → 1: flagging 0 saves its child's disk read and moves its
    // write off the critical path (bg write still bounds end-to-end here
    // only if longer than downstream work — pick sizes so it is not).
    val d = Dag.of(Seq(1000, 10), Seq(0, 0), Set((0, 1)))
    val i = Simulator.Inputs(Vector(1000L, 10L), Vector(5.0, 50.0), Vector(0L, 0L))
    val none = Simulator.simulate(d, Plan(Vector(0, 1), Set.empty), cost, i)
    val one = Simulator.simulate(d, Plan(Vector(0, 1), Set(0)), cost, i)
    val predicted = cost.speedupScore(d.children(0).size, 1000L, 0.0)
    assert(math.abs((none.endToEndMs - one.endToEndMs) - predicted) < 0.5)
  }

  test("speedup score with a create cost equals the simulated saving of an isolated flag") {
    // 0 → 1 and 0 → 2; node 0's background write (20 ms) ends before the
    // children's foreground work does, so the whole score is saved.
    val d = Dag.of(Seq(1000, 10, 10), Seq(0, 0, 0), Set((0, 1), (0, 2)))
    val i = Simulator.Inputs(Vector(1000L, 10L, 10L), Vector(5.0, 50.0, 50.0),
      Vector(300L, 0L, 0L), memCreateMs = 3.0)
    val order = Vector(0, 1, 2)
    val none = Simulator.simulate(d, Plan(order, Set.empty), cost, i)
    val one = Simulator.simulate(d, Plan(order, Set(0)), cost, i)
    val predicted = cost.speedupScore(d.children(0).size, 1000L, i.memCreateMs)
    assert(predicted > 0)
    assert(math.abs((none.endToEndMs - one.endToEndMs) - predicted) < 1e-9)
  }
  test("matches the reference simulator on random plans") {
    var childlessFlagged, zeroLength = 0
    (0 until 240).foreach { s =>
      val rnd = new scala.util.Random(s)
      val d = BruteForce.randomDag(1 + rnd.nextInt(12), s)
      // A random topological order: Kahn's algorithm taking a random ready node.
      val indeg = Array.tabulate(d.n)(d.parents(_).size)
      val ready = mutable.Buffer.from((0 until d.n).filter(indeg(_) == 0))
      val order = Vector.newBuilder[Int]
      while (ready.nonEmpty) {
        val v = ready.remove(rnd.nextInt(ready.size))
        order += v
        d.children(v).foreach { c => indeg(c) -= 1; if (indeg(c) == 0) ready += c }
      }
      val plan = Plan(order.result(), (0 until d.n).filter(_ => rnd.nextDouble() < 0.6).toSet)
      // Odd cases use a storage model without delays: zero-length writes,
      // and with zero compute many nodes end at the same time.
      val nfs = if (s % 2 == 0) cost else NfsModel.free
      val i = Simulator.Inputs(
        sizes = Vector.fill(d.n)(rnd.nextInt(2000).toLong),
        computeMs = Vector.fill(d.n)(if (rnd.nextBoolean()) 0.0 else rnd.nextInt(20).toDouble),
        baseReadBytes = Vector.fill(d.n)(rnd.nextInt(3000).toLong),
        memCreateMs = if (rnd.nextBoolean()) 0.0 else 3.0)
      val got = Simulator.simulate(d, plan, nfs, i)
      val want = ReferenceSimulator.simulate(d, plan, nfs, i)
      assert(got.endToEndMs == want.endToEndMs, s"case $s")
      assert(got.tableReadMs == want.tableReadMs, s"case $s")
      assert(got.computeMs == want.computeMs, s"case $s")
      assert(got.writeMs == want.writeMs, s"case $s")
      assert(got.nodeEndMs == want.nodeEndMs, s"case $s")
      val childless = plan.flagged.count(d.children(_).isEmpty)
      childlessFlagged += childless
      if (nfs == NfsModel.free && i.memCreateMs == 0.0) zeroLength += childless
    }
    assert(childlessFlagged > 0 && zeroLength > 0)
  }
}
