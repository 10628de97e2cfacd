package repro.baseline

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.LabelSeq
import repro.graph.LabeledGraph

/** NFA-guided BFS and BiBFS against the independent brute-force evaluator.
  * The two share one search loop, so each is checked against `BruteForce`,
  * never only against the other.
  */
class NfaBfsSpec extends AnyFunSuite {

  for (seed <- 1 to 8)
    test(s"BFS and BiBFS agree with brute force on random graph seed=$seed (kleene-plus)") {
      val g = TestGraphs.random(seed, n = 20, e = 60, labels = 3)
      val prims = BruteForce.primitives(3, 3)
      val rng = new SplittableRandom(seed)
      for (_ <- 1 to 120) {
        val s = rng.nextInt(g.numVertices)
        val t = rng.nextInt(g.numVertices)
        val mr = prims(rng.nextInt(prims.size))
        val nfa = Nfa.kleenePlus(mr, g.numLabels)
        val expected = BruteForce.reach(g, s, t, mr)
        assert(NfaBfs.bfs(g, s, t, nfa).contains(expected), s"bfs s=$s t=$t ${LabelSeq.show(mr)}")
        assert(NfaBfs.bibfs(g, s, t, nfa).contains(expected), s"bibfs s=$s t=$t ${LabelSeq.show(mr)}")
      }
    }

  for (seed <- 1 to 4)
    test(s"BFS and BiBFS agree on concatPlus queries, seed=$seed") {
      val g = TestGraphs.random(seed + 50, n = 20, e = 70, labels = 3)
      val rng = new SplittableRandom(seed)
      for (_ <- 1 to 80) {
        val s = rng.nextInt(g.numVertices)
        val t = rng.nextInt(g.numVertices)
        val a = rng.nextInt(3)
        var b = rng.nextInt(3); while (b == a) b = rng.nextInt(3)
        val nfa = Nfa.concatPlus(a, b, 3)
        // a+∘b+: some v with s ⇝ v under a+ and v ⇝ t under b+
        val expected = (0 until g.numVertices).exists(v =>
          BruteForce.reach(g, s, v, LabelSeq.encode(a)) && BruteForce.reach(g, v, t, LabelSeq.encode(b)))
        assert(NfaBfs.bfs(g, s, t, nfa).contains(expected), s"bfs s=$s t=$t a=$a b=$b")
        assert(NfaBfs.bibfs(g, s, t, nfa).contains(expected), s"bibfs s=$s t=$t a=$a b=$b")
      }
    }

  test("s == t with a self loop: (l)+ true, other labels false") {
    val g = LabeledGraph.fromEdges(2, 2, Array((0, 0, 0), (0, 1, 1)))
    assert(NfaBfs.bfs(g, 0, 0, Nfa.kleenePlus(LabelSeq.encode(0), 2)).contains(true))
    assert(NfaBfs.bibfs(g, 0, 0, Nfa.kleenePlus(LabelSeq.encode(0), 2)).contains(true))
    assert(NfaBfs.bfs(g, 0, 0, Nfa.kleenePlus(LabelSeq.encode(1), 2)).contains(false))
    assert(NfaBfs.bibfs(g, 0, 0, Nfa.kleenePlus(LabelSeq.encode(1), 2)).contains(false))
    // empty path must NOT satisfy the Kleene plus
    assert(NfaBfs.bfs(g, 1, 1, Nfa.kleenePlus(LabelSeq.encode(0), 2)).contains(false))
    assert(NfaBfs.bibfs(g, 1, 1, Nfa.kleenePlus(LabelSeq.encode(0), 2)).contains(false))
  }

  test("budget exhaustion returns None (the bench's timeout)") {
    val g = TestGraphs.random(3, n = 30, e = 120, labels = 2)
    val nfa = Nfa.kleenePlus(LabelSeq.encode(0), 2)
    assert(NfaBfs.bfs(g, 0, 29, nfa, budget = 1L).isEmpty)
    assert(NfaBfs.bibfs(g, 0, 29, nfa, budget = 1L).isEmpty)
  }

  test("a path longer than the constraint: (l0,l1)+ over a 4-path") {
    // 0 -l0-> 1 -l1-> 2 -l0-> 3 -l1-> 4
    val g = LabeledGraph.fromEdges(5, 2, Array((0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4)))
    val nfa = Nfa.kleenePlus(LabelSeq.encode(0, 1), 2)
    assert(NfaBfs.bfs(g, 0, 2, nfa).contains(true))
    assert(NfaBfs.bfs(g, 0, 4, nfa).contains(true))
    assert(NfaBfs.bfs(g, 0, 1, nfa).contains(false)) // half a copy
    assert(NfaBfs.bfs(g, 0, 3, nfa).contains(false))
    assert(NfaBfs.bibfs(g, 0, 4, nfa).contains(true))
    assert(NfaBfs.bibfs(g, 0, 3, nfa).contains(false))
  }

  test("plusWalk visits exactly the L+ closure of s, each vertex once") {
    for (seed <- 1 to 6; mr <- BruteForce.primitives(3, 2)) {
      val g = TestGraphs.random(seed, n = 20, e = 60, labels = 3)
      for (s <- 0 until g.numVertices) {
        val seen = scala.collection.mutable.ArrayBuffer.empty[Int]
        assert(!NfaBfs.plusWalk(g, s, LabelSeq.decode(mr)) { v => seen += v; false })
        val expected = (0 until g.numVertices).filter(t => BruteForce.reach(g, s, t, mr))
        assert(seen.sorted == expected, s"seed=$seed s=$s ${LabelSeq.show(mr)}")
      }
    }
  }

  test("bfs, bibfs and plusWalk reject a product state space beyond Int range") {
    // 2^24 vertices × 128 states = 2^31 product states: one more than an Int index holds
    val g = LabeledGraph.fromEdges(LabeledGraph.MaxVertices, 1, Array.empty)
    val nfa = new Nfa(128, 0, Array.fill(128)(false), Array.fill(128, 1)(-1))
    intercept[IllegalArgumentException](NfaBfs.bfs(g, 0, 1, nfa))
    intercept[IllegalArgumentException](NfaBfs.bibfs(g, 0, 1, nfa))
    intercept[IllegalArgumentException](NfaBfs.plusWalk(g, 0, Array.fill(128)(0))(_ => false))
  }

  test("plusWalk stops at the first visit that returns true") {
    // 0 -l0-> 1 -l0-> 2 -l0-> 3
    val g = LabeledGraph.fromEdges(4, 1, Array((0, 0, 1), (1, 0, 2), (2, 0, 3)))
    val seen = scala.collection.mutable.ArrayBuffer.empty[Int]
    assert(NfaBfs.plusWalk(g, 0, Array(0)) { v => seen += v; v == 2 })
    assert(seen == Seq(1, 2))
  }

  test("plusWalk budget trips when more than maxStates states are reached") {
    // (l0,l1)+ over 0 -l0-> 1 -l1-> 2 -l0-> 3 -l1-> 4: four product states
    val g = LabeledGraph.fromEdges(5, 2, Array((0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4)))
    val lab = Array(0, 1)
    val seen = scala.collection.mutable.ArrayBuffer.empty[Int]
    assert(!NfaBfs.plusWalk(g, 0, lab, maxStates = 4) { v => seen += v; false })
    assert(seen == Seq(2, 4))
    seen.clear()
    assert(NfaBfs.plusWalk(g, 0, lab, maxStates = 3) { v => seen += v; false })
    assert(seen == Seq(2))
  }
}
