package repro.graph

/** The paper's running-example graphs, used as exact-answer fixtures. */
object ExampleGraphs {

  /** Fig. 2's graph G (vertices v1..v6 → 0..5, labels l1..l3 → 0..2),
    * reconstructed from Examples 3/4/5 and Table II — see DESIGN.md §5 for
    * the derivation and the checks that pin it down (IN-OUT order, every
    * insertion of Example 4, the frontier sets, Table II); `Fig2Spec` also
    * pins the pruning-rule firings of the build on it.
    */
  def fig2: LabeledGraph = {
    val l1 = 0; val l2 = 1; val l3 = 2
    val (v1, v2, v3, v4, v5, v6) = (0, 1, 2, 3, 4, 5)
    LabeledGraph.fromEdges(6, 3, Array(
      (v1, l2, v3),
      (v1, l1, v2),
      (v2, l2, v5),
      (v2, l1, v5),
      (v3, l2, v1),
      (v3, l2, v4),
      (v3, l1, v2),
      (v3, l1, v6),
      (v4, l1, v1),
      (v4, l3, v6),
      (v5, l1, v1),
    ))
  }
}
