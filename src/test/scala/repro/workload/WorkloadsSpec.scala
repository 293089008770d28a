package repro.workload

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite

/** Structural checks on the five Table III workloads (no Spark needed). */
class WorkloadsSpec extends AnyFunSuite {

  test("node counts match Table III: 21/19/26/21/16") {
    assert(Workloads.all.map(_.mvs.size) == Vector(21, 19, 26, 21, 16))
  }

  test("workload keys and TPC-DS query groups match the paper") {
    assert(Workloads.all.map(_.title) ==
      Vector("I/O 1", "I/O 2", "I/O 3", "Compute 1", "Compute 2"))
    assert(Workloads.io1.tpcdsQueries == "5, 77, 80")
    assert(Workloads.io2.tpcdsQueries == "2, 59, 74, 75")
    assert(Workloads.io3.tpcdsQueries == "44, 49")
    assert(Workloads.compute1.tpcdsQueries == "33, 56, 60, 61")
    assert(Workloads.compute2.tpcdsQueries == "14, 23")
  }

  test("workload SQL is unchanged bit for bit") {
    val md = MessageDigest.getInstance("SHA-256")
    Workloads.all.foreach(_.mvs.foreach { mv =>
      Seq(mv.name, mv.sql, mv.sqlPartitioned, mv.parents, mv.baseTables,
        mv.partitionYears.toSeq.sortBy(_._1)).foreach(x => md.update((x.toString + "\n").getBytes("UTF-8")))
    })
    val hex = md.digest().map(b => f"$b%02x").mkString
    assert(hex == "1b46d5ed4dcb24ef29d448729495faf85ba3e17a95eaff06377bdbbed2301df5")
  }

  test("MV names are globally unique across workloads") {
    val names = Workloads.all.flatMap(_.mvs.map(_.name))
    assert(names.distinct.size == names.size)
  }

  test("dependency graphs are acyclic with valid topological orders") {
    Workloads.all.foreach { w =>
      val d = w.structuralDag
      assert(d.isTopological(d.topological), w.key)
    }
  }

  test("every declared parent is referenced in the SQL text") {
    Workloads.all.foreach(w => w.mvs.foreach { mv =>
      mv.parents.foreach(p => assert(mv.sql.contains(p), s"${mv.name} missing $p"))
    })
  }

  test("every declared base table is referenced in the SQL text") {
    Workloads.all.foreach(w => w.mvs.foreach { mv =>
      mv.baseTables.foreach(t => assert(mv.sql.contains(t), s"${mv.name} missing $t"))
    })
  }

  test("SQL references no undeclared MV or base table") {
    val allNames = Workloads.all.flatMap(_.mvs.map(_.name)).toSet
    Workloads.all.foreach(w => w.mvs.foreach { mv =>
      allNames.foreach { other =>
        // Whole-identifier match: io3_store_pos must not hit io3_store_pos_agg.
        if (other != mv.name &&
            mv.sql.matches(s"(?s).*\\b${java.util.regex.Pattern.quote(other)}\\b.*"))
          assert(mv.parents.contains(other), s"${mv.name} references undeclared $other")
      }
      TpcDsLite.AllTables.foreach { t =>
        // Column prefixes (ss_ etc.) can collide with table names only via
        // whole-word use in FROM/JOIN clauses.
        if (mv.sql.matches(s"(?s).*(FROM|JOIN) $t\\b.*"))
          assert(mv.baseTables.contains(t), s"${mv.name} reads undeclared $t")
      }
    })
  }

  test("partitioned SQL variants exist exactly for extract nodes") {
    Workloads.all.foreach(w => w.mvs.foreach { mv =>
      assert(mv.sqlPartitioned.isDefined == mv.partitionYears.nonEmpty,
        s"${mv.name}: partition SQL and years must go together")
    })
  }

  test("partition years are declared on sales base tables only") {
    Workloads.all.foreach(w => w.mvs.foreach { mv =>
      mv.partitionYears.keys.foreach { t =>
        assert(TpcDsLite.SalesTables.contains(t), s"${mv.name}: $t not a sales table")
        assert(mv.baseTables.contains(t), s"${mv.name}: partition years on undeclared $t")
      }
    })
  }

  test("partitioned variants filter on the partition column") {
    Workloads.all.foreach(w => w.mvs.foreach { mv =>
      mv.sqlPartitioned.foreach { sql =>
        assert(mv.partitionYears.keys.exists(t =>
          sql.contains(TpcDsLite.Channels.find(_.table == t).get.yearCol)),
          s"${mv.name}: partitioned SQL lacks a year-column filter")
      }
    })
  }

  test("roots read base tables; non-roots with parents may skip them") {
    Workloads.all.foreach { w =>
      val d = w.structuralDag
      d.roots.foreach(r => assert(w.mvs(r).baseTables.nonEmpty, s"${w.mvs(r).name}"))
    }
  }

  test("dag() wires calibrated sizes and speedups by name") {
    val w = Workloads.io2
    val sizes = w.mvs.map(m => m.name -> (m.name.length * 100L)).toMap
    val speedups = w.mvs.map(m => m.name -> m.name.length.toDouble).toMap
    val d = w.dag(sizes, speedups)
    w.mvs.zipWithIndex.foreach { case (m, i) =>
      assert(d.size(i) == sizes(m.name) && d.speedup(i) == speedups(m.name))
    }
    assert(d.edges == w.edges)
  }

  test("duplicate MV names are rejected") {
    val mv = MvSpec("x", "SELECT 1 AS a")
    assertThrows[IllegalArgumentException](Workload("t", "t", "", Vector(mv, mv)))
  }

  test("forward references are rejected") {
    val a = MvSpec("a", "SELECT * FROM b")
    val b = MvSpec("b", "SELECT 1 AS x")
    assertThrows[IllegalArgumentException](Workload("t", "t", "", Vector(a, b)))
  }

  test("a statement reading an unknown relation is rejected, naming it") {
    val typo = MvSpec("x", "SELECT * FROM stor_sales")
    val e = intercept[IllegalArgumentException](Workload("t", "t", "", Vector(typo)))
    assert(e.getMessage.contains("stor_sales"), e.getMessage)
  }

  test("every partitioned variant reads the relations of its regular statement") {
    Workloads.all.foreach(_.mvs.foreach { mv =>
      mv.sqlPartitioned.foreach(p => assert(MvSpec.relations(p) == MvSpec.relations(mv.sql), mv.name))
    })
  }

  test("every workload has per-channel roots and at least one report sink") {
    Workloads.all.foreach { w =>
      val d = w.structuralDag
      assert(d.roots.size >= 3, s"${w.key}: expected one root per channel")
      assert(d.sinks.nonEmpty, w.key)
      // Every extract is consumed by at least one downstream node.
      d.roots.foreach(r => assert(d.children(r).nonEmpty, s"${w.key}/${w.mvs(r).name}"))
    }
  }
}
