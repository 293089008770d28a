package repro.core

/** The alive-set constraints as first written with `Set[Int]` rows, kept
  * verbatim as the reference the bitset `Constraints` is compared against.
  */
object ReferenceConstraints {

  /** All alive-sets under `order`, one per execution position, with
    * excluded nodes removed: position k's set holds every candidate whose
    * [[Plan.residency]] span covers k.
    */
  def aliveSets(dag: Dag, order: Vector[Int], exclude: Set[Int]): Vector[Set[Int]] = {
    val r = Plan.residency(dag, order)
    val sets = Vector.fill(dag.n)(Set.newBuilder[Int])
    (0 until dag.n).filterNot(exclude).foreach(j => r.span(j).foreach(k => sets(k) += j))
    sets.map(_.result())
  }

  /** Relevant constraint sets: distinct, maximal (not a strict subset of
    * another) and non-trivial (their total size can exceed the budget).
    */
  def constraintSets(dag: Dag, order: Vector[Int], memoryBudget: Long): Vector[Set[Int]] = {
    val exclude  = Constraints.excluded(dag, memoryBudget)
    val distinct = aliveSets(dag, order, exclude).distinct.filter(_.nonEmpty)
    val maximal  = distinct.filterNot(s => distinct.exists(o => s != o && s.subsetOf(o)))
    maximal.filter(_.toSeq.map(dag.size).sum > memoryBudget)
  }
}
