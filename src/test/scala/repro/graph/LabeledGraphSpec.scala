package repro.graph

import repro.{SparkSpec, TestGraphs}
import repro.core.LabelSeq

/** CSR construction, dedup, degrees, the label-grouped adjacency, and the
  * DataFrame view.
  */
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

  /** Seeded graph with self-loops and parallel edges under several labels. */
  private def multiLabelGraph(seed: Long): LabeledGraph = {
    val rng = new java.util.SplittableRandom(seed)
    val (n, labels) = (20 + seed.toInt, 4)
    val triples = Array.fill(6 * n) {
      val s = rng.nextInt(n)
      val d = if (rng.nextInt(8) == 0) s else rng.nextInt(n)
      (s, rng.nextInt(labels), d)
    }
    // every fourth edge again under every label, so (s, d) pairs repeat across labels
    LabeledGraph.fromEdges(n, labels, triples ++ triples.indices.by(4).flatMap { i =>
      val (s, _, d) = triples(i); (0 until labels).map(l => (s, l, d))
    })
  }

  /** `grouped`'s run for every (vertex, label), checked against the CSR
    * adjacency `off`/`vert`/`label` filtered to that label, in CSR order.
    */
  private def assertGroupsFilterCsr(g: LabeledGraph, grouped: LabelGroups, off: Array[Int],
                                    vert: Array[Int], label: Array[Int]): Unit = {
    assert(grouped.off.length == g.numVertices * g.numLabels + 1)
    assert(grouped.vert.length == g.numEdges)
    for (v <- 0 until g.numVertices; l <- 0 until g.numLabels) {
      val key = v * g.numLabels + l
      val run = grouped.vert.slice(grouped.off(key), grouped.off(key + 1)).toSeq
      assert(run == (off(v) until off(v + 1)).filter(label(_) == l).map(vert), s"v=$v l=$l")
    }
  }

  test("label-grouped adjacency is the CSR adjacency filtered per label, in CSR order") {
    for (seed <- 1L to 6L) {
      val g = multiLabelGraph(seed)
      assert(g.edges.exists { case (s, _, d) => s == d }, "no self-loop")
      assert(g.edges.toSeq.groupBy { case (s, _, d) => (s, d) }.exists(_._2.size > 1), "no parallel edge")
      assertGroupsFilterCsr(g, g.outByLabel, g.outOff, g.outDst, g.outLabel)
      assertGroupsFilterCsr(g, g.inByLabel, g.inOff, g.inSrc, g.inLabel)
    }
  }

  test("label-grouped adjacency is not serialized; a deserialized graph rebuilds it") {
    def serialize(g: LabeledGraph): Array[Byte] = {
      val bytes = new java.io.ByteArrayOutputStream
      val out   = new java.io.ObjectOutputStream(bytes)
      out.writeObject(g); out.close()
      bytes.toByteArray
    }
    val built = multiLabelGraph(7)
    val (outGroups, inGroups) = (built.outByLabel, built.inByLabel)
    val bytes = serialize(built)
    assert(bytes.length == serialize(multiLabelGraph(7)).length)
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes))
      .readObject().asInstanceOf[LabeledGraph]
    def same(a: LabelGroups, b: LabelGroups) = a.off.sameElements(b.off) && a.vert.sameElements(b.vert)
    assert(copy.outByLabel ne outGroups)
    assert(same(copy.outByLabel, outGroups) && same(copy.inByLabel, inGroups))
  }

  test("label-grouped adjacency rejects |V|·|L| beyond its Int offsets; the graph itself builds") {
    // 2^24 vertices × 128 labels = 2^31 groups: the require runs before the offsets are allocated
    val g = LabeledGraph.fromEdges(LabeledGraph.MaxVertices, 128, Array.empty)
    intercept[IllegalArgumentException](g.outByLabel)
    intercept[IllegalArgumentException](g.inByLabel)
  }

  test("toDF/fromDF roundtrip preserves the edge set") {
    // the DataFrame view holds each CSR edge exactly once
    val g = TestGraphs.random(12, n = 20, e = 60, labels = 3)
    val rows = g.toDF(spark).collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(2)))
    assert(rows.sorted.toSeq == g.edges.toSeq.sorted)
  }
}
