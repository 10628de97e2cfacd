package repro.graph

import repro.{SparkSpec, TestGraphs}
import repro.core.LabelSeq

/** CSR construction, dedup, degrees, and the DataFrame view. */
class LabeledGraphSpec extends SparkSpec {

  test("edges roundtrip through CSR; duplicates collapse") {
    val triples = Array((0, 0, 1), (0, 0, 1), (1, 1, 2), (2, 0, 0), (2, 2, 2))
    val g = LabeledGraph.fromEdges(3, 3, triples)
    assert(g.numEdges == 4)
    assert(g.edges.toSet == Set((0, 0, 1), (1, 1, 2), (2, 0, 0), (2, 2, 2)))
  }

  test("out/in adjacency are mutually consistent") {
    val g = TestGraphs.random(4, n = 30, e = 90, labels = 3)
    val fromOut = g.edges.toSet
    val fromIn = (0 until g.numVertices).flatMap { v =>
      (g.inOff(v) until g.inOff(v + 1)).map(i => (g.inSrc(i), g.inLabel(i), v))
    }.toSet
    assert(fromOut == fromIn)
    assert(g.numEdges == fromOut.size)
  }

  test("degrees sum to edge count") {
    val g = TestGraphs.random(8, n = 25, e = 80, labels = 3)
    assert((0 until g.numVertices).map(g.outDegree).sum == g.numEdges)
    assert((0 until g.numVertices).map(g.inDegree).sum == g.numEdges)
  }

  test("parallel edges with distinct labels are kept") {
    val g = LabeledGraph.fromEdges(2, 3, Array((0, 0, 1), (0, 1, 1), (0, 2, 1)))
    assert(g.numEdges == 3)
    assert(g.outDegree(0) == 3)
  }

  test("out-of-range vertices and labels rejected") {
    intercept[IllegalArgumentException](LabeledGraph.fromEdges(2, 2, Array((0, 0, 2))))
    intercept[IllegalArgumentException](LabeledGraph.fromEdges(2, 2, Array((0, 2, 1))))
  }

  test("more labels than packed LabelSeq holds rejected") {
    intercept[IllegalArgumentException](
      LabeledGraph.fromEdges(2, LabelSeq.MaxLabels + 1, Array((0, LabelSeq.MaxLabels, 1))))
  }

  test("more vertices than the dedup key holds rejected") {
    // (0,0,2^24) and (1,0,0) would share one 24/24/16-bit dedup key
    val n = LabeledGraph.MaxVertices
    intercept[IllegalArgumentException](
      LabeledGraph.fromEdges(n + 1, 1, Array((0, 0, n), (1, 0, 0))))
  }

  test("toDF/fromDF roundtrip preserves the edge set") {
    // the DataFrame view holds each CSR edge exactly once
    val g = TestGraphs.random(12, n = 20, e = 60, labels = 3)
    val rows = g.toDF(spark).collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(2)))
    assert(rows.sorted.toSeq == g.edges.toSeq.sorted)
  }
}
