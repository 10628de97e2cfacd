package repro.graph

import org.scalatest.funsuite.AnyFunSuite

/** Generators: determinism, size/label contracts, degree-distribution
  * shape, Zipf label skew, loop injection, and lite-suite integrity.
  */
class GraphGenSpec extends AnyFunSuite {

  test("ER generator is deterministic in the seed") {
    val a = GraphGen.er(500, 2000, 8, 42)
    val b = GraphGen.er(500, 2000, 8, 42)
    assert(a.edges.toSeq == b.edges.toSeq)
    val c = GraphGen.er(500, 2000, 8, 43)
    assert(a.edges.toSet != c.edges.toSet)
  }

  test("ER with edges but fewer than 2 vertices is rejected instead of looping") {
    intercept[IllegalArgumentException](GraphGen.er(1, 1, 1, 0L))
    assert(GraphGen.er(1, 0, 1, 0L).numEdges == 0)
  }

  test("BA generator is deterministic in the seed") {
    val a = GraphGen.ba(500, 2000, 8, 42)
    val b = GraphGen.ba(500, 2000, 8, 42)
    assert(a.edges.toSeq == b.edges.toSeq)
  }

  test("ER: requested sizes, labels in range, no self loops") {
    val g = GraphGen.er(1000, 5000, 8, 7)
    assert(g.numVertices == 1000)
    assert(g.numEdges <= 5000 && g.numEdges > 4800) // dedup may drop a few
    assert(g.edges.forall { case (s, l, d) => l >= 0 && l < 8 && s != d })
  }

  test("BA: sizes near target, labels in range") {
    val g = GraphGen.ba(1000, 5000, 8, 7)
    assert(g.numVertices == 1000)
    assert(g.numEdges > 4000 && g.numEdges <= 5200)
    assert(g.edges.forall { case (_, l, _) => l >= 0 && l < 8 })
  }

  test("BA degree distribution is heavier-tailed than ER") {
    val ba = GraphGen.ba(2000, 10000, 8, 11)
    val er = GraphGen.er(2000, 10000, 8, 11)
    def maxDeg(g: LabeledGraph) =
      (0 until g.numVertices).map(v => g.outDegree(v) + g.inDegree(v)).max
    assert(maxDeg(ba) > 3 * maxDeg(er), s"ba=${maxDeg(ba)} er=${maxDeg(er)}")
  }

  test("Zipf(2) labels: label 0 dominates, monotone frequencies") {
    val g = GraphGen.er(2000, 20000, 8, 5)
    val freq = g.edges.toSeq.groupBy(_._2).view.mapValues(_.size).toMap
    assert(freq(0) > freq.getOrElse(1, 0))
    assert(freq(0) > g.numEdges / 2, s"zipf(2) head should exceed half: ${freq(0)}")
    assert(freq.getOrElse(1, 0) > freq.getOrElse(3, 0))
  }

  test("withLoops injects self loops") {
    val base = GraphGen.er(500, 2000, 4, 3)
    val g = GraphGen.withLoops(base, 100, 9)
    val loops = g.edges.count { case (s, _, d) => s == d }
    assert(loops > 80 && loops <= 100) // dedup may collapse a few
  }

  test("lite suite configs generate graphs with the declared shapes") {
    // generate the two smallest analogs fully; spot-check fields of the rest
    val ad = GraphGen.lite("AD").generate()
    assert(ad.numVertices == 6000)
    assert(ad.numLabels == 3)
    assert(ad.edges.count { case (s, _, d) => s == d } > 2000)
    val ep = GraphGen.lite("EP").generate()
    assert(ep.numVertices == 7500)
    assert(ep.numLabels == 8)
    assert(GraphGen.liteSuite.size == 13)
    assert(GraphGen.liteSuite.map(_.name).distinct.size == 13)
    GraphGen.liteSuite.foreach { c => assert(c.e > 0 && c.v > 0 && c.labels > 0, c.name) }
  }

  test("unknown lite name raises") {
    intercept[NoSuchElementException](GraphGen.lite("nope"))
  }
}
