package repro.core

import org.scalacheck.{Gen, Prop, Shrink, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.baseline.BruteForce
import repro.graph.LabeledGraph

/** Soundness + completeness of the sequential indexing algorithm on many
  * seeded random graphs: for every vertex pair and every primitive
  * constraint of length <= k, the index answer must equal an independent
  * brute-force product-graph search. Also checks the condensed property,
  * the flat snapshot, reuse of one scratch across roots and builds, the
  * scratch's size limit, that the builder keeps exactly the entries of the
  * paper's literal protocol ([[LiveQueryInserter]]), that Kbs tries
  * each (direction, vertex, MR) at most once per root, and the order in
  * which it tries them.
  */
class RlcIndexBuilderSpec extends AnyFunSuite {
  import RlcIndexBuilderSpec._

  private def checkAllPairs(g: LabeledGraph, k: Int): RlcIndex = {
    val index = RlcIndexBuilder.build(g, k)
    val prims = BruteForce.primitives(g.numLabels, k)
    for (s <- 0 until g.numVertices; t <- 0 until g.numVertices; mr <- prims) {
      val expected = BruteForce.reach(g, s, t, mr)
      assert(index.query(s, t, mr) == expected,
        s"s=$s t=$t L=${LabelSeq.show(mr)} expected=$expected")
    }
    index
  }

  for (seed <- 1 to 10; k <- 1 to LabelSeq.MaxLen)
    test(s"random graph seed=$seed k=$k: index ≡ brute force on all pairs, condensed") {
      val g = TestGraphs.random(seed, n = 18 + seed, e = 55 + 3 * seed, labels = if (k >= 3) 2 else 3)
      val index = checkAllPairs(g, k)
      assert(index.condensedViolations == 0L)
    }

  for (seed <- 1 to 4)
    test(s"skewed BA graph seed=$seed k=2: index ≡ brute force on all pairs") {
      val g = TestGraphs.smallBa(seed, n = 40, e = 150, labels = 3)
      checkAllPairs(g, 2)
    }

  for (seed <- 1 to 4)
    test(s"ER graph seed=$seed k=2: index ≡ brute force on all pairs") {
      val g = TestGraphs.smallEr(seed, n = 40, e = 140, labels = 3)
      checkAllPairs(g, 2)
    }

  test("self-loop heavy graph: loops traversed multiple times when needed") {
    // v0 -l0-> v0 (loop), v0 -l1-> v1: (l0,l1)+ requires using the loop;
    // (l0)+ from v0 to v0 true; (l1)+ from v0 to v1 true.
    val g = LabeledGraph.fromEdges(2, 2, Array((0, 0, 0), (0, 1, 1)))
    val index = RlcIndexBuilder.build(g, 2)
    assert(index.query(0, 0, LabelSeq.encode(0)))
    assert(index.query(0, 1, LabelSeq.encode(1)))
    assert(index.query(0, 1, LabelSeq.encode(0, 1)))
    assert(!index.query(0, 1, LabelSeq.encode(1, 0)))
    assert(!index.query(1, 0, LabelSeq.encode(0)))
  }

  test("two-cycle requires full alternation: (l0,l1)+ across a 2-cycle") {
    // 0 -l0-> 1 -l1-> 0
    val g = LabeledGraph.fromEdges(2, 2, Array((0, 0, 1), (1, 1, 0)))
    val index = RlcIndexBuilder.build(g, 2)
    assert(index.query(0, 0, LabelSeq.encode(0, 1)))
    assert(index.query(1, 1, LabelSeq.encode(1, 0)))
    assert(index.query(0, 1, LabelSeq.encode(0)))
    assert(!index.query(0, 0, LabelSeq.encode(0)))
    assert(!index.query(0, 0, LabelSeq.encode(1, 0)))
  }

  test("long cycle with k=1: (l0)+ around a 5-cycle") {
    val g = LabeledGraph.fromEdges(5, 1, Array.tabulate(5)(i => (i, 0, (i + 1) % 5)))
    val index = RlcIndexBuilder.build(g, 1)
    for (s <- 0 until 5; t <- 0 until 5)
      assert(index.query(s, t, LabelSeq.encode(0)), s"$s->$t")
  }

  test("disconnected pieces never reach each other") {
    val g = LabeledGraph.fromEdges(4, 2, Array((0, 0, 1), (2, 0, 3)))
    val index = RlcIndexBuilder.build(g, 2)
    assert(index.query(0, 1, LabelSeq.encode(0)))
    assert(index.query(2, 3, LabelSeq.encode(0)))
    assert(!index.query(0, 3, LabelSeq.encode(0)))
    assert(!index.query(0, 2, LabelSeq.encode(0)))
  }

  test("flat snapshot answers exactly like the live index") {
    // the snapshot serves only as a task's CaseOne view, so equal lists mean equal PR1 answers
    val g = TestGraphs.random(99, n = 22, e = 70, labels = 3)
    val index = RlcIndexBuilder.build(g, 2)
    val snap  = FlatRlcIndex.fromIndex(index)
    assert(index.entryCount > 0)
    for (l <- 0 until 2 * g.numVertices)
      assert(viewList(snap, l) == viewList(index, l), s"list id $l")
  }

  test("condensed property holds on a batch of random graphs") {
    for (seed <- 20 to 30) {
      val g = TestGraphs.random(seed, n = 25, e = 80, labels = 3)
      assert(RlcIndexBuilder.build(g, 2).condensedViolations == 0L, s"seed=$seed")
    }
  }

  test("answer() rejects non-primitive or overlong constraints") {
    val g = TestGraphs.random(1)
    val index = RlcIndexBuilder.build(g, 2)
    intercept[IllegalArgumentException](index.answer(0, 1, LabelSeq.encode(0, 0)))
    intercept[IllegalArgumentException](index.answer(0, 1, LabelSeq.encode(0, 1, 2)))
  }

  test("index size accounting: sizeInBytes = 12 * entries + 8 * |V|") {
    val g = TestGraphs.random(5)
    val index = RlcIndexBuilder.build(g, 2)
    assert(index.sizeInBytes == index.entryCount * 12 + g.numVertices * 8)
    val snap = FlatRlcIndex.fromIndex(index) // the 8 bytes per vertex are its two list offsets
    assert(index.sizeInBytes == 12L * snap.entryHops.length + 4L * (snap.off.length - 1))
    assert(index.sizeInMB > 0)
  }

  private def entryLists(ix: RlcIndex): IndexedSeq[(Seq[(Int, Long)], Seq[(Int, Long)])] = {
    def list(l: EntryList) = l.hops.take(l.n).toSeq.zip(l.mrs.take(l.n))
    (0 until ix.numVertices).map(v => (list(ix.out(v)), list(ix.in(v))))
  }

  /** `g`'s index built with a new scratch for every root. */
  private def freshScratchBuild(g: LabeledGraph, k: Int): RlcIndex = {
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    val index = new RlcIndex(g.numVertices, k, aid)
    order.foreach(root => RlcIndexBuilder.runRoots(g, k, index, Seq(root), new KbsScratch(g.numVertices, k)))
    index
  }

  test("one KbsScratch serves runRoots over several graphs in a row: entry lists as with fresh scratch") {
    // stamps, probe tables and the root-cycle MRs must not leak between roots or builds
    val runs = Seq(
      (TestGraphs.random(41, n = 30, e = 110, labels = 3), 3),
      (TestGraphs.smallBa(42, n = 30, e = 120, labels = 3), 3),
      (TestGraphs.random(43, n = 22, e = 80, labels = 2), 2),
      (TestGraphs.random(41, n = 30, e = 110, labels = 3), 3),
    )
    val scratch = new KbsScratch(30, 3)
    for (((g, k), i) <- runs.zipWithIndex) {
      val (aid, order) = RlcIndexBuilder.accessOrder(g)
      val index = new RlcIndex(g.numVertices, k, aid)
      RlcIndexBuilder.runRoots(g, k, index, order.toIndexedSeq, scratch)
      assert(index.entryCount > 0, s"run $i")
      assert(entryLists(index) == entryLists(freshScratchBuild(g, k)), s"run $i")
    }
  }

  test("kernel map grows past its initial capacity: literal Algorithm 2's entry lists, brute-force answers") {
    val g = TestGraphs.random(7, n = 8, e = 120, labels = 16)
    val k = 3
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    val index   = new RlcIndex(g.numVertices, k, aid)
    val scratch = new KbsScratch(g.numVertices, k)
    RlcIndexBuilder.runRoots(g, k, index, order.toIndexedSeq, scratch)
    assert(scratch.kernels.length > KbsScratch.InitialKernels, "no single search outgrew the kernel map")
    assert(entryLists(index) == entryLists(LiveQueryInserter.build(g, k)))
    for (s <- 0 until g.numVertices; t <- 0 until g.numVertices; mr <- BruteForce.primitives(16, k))
      assert(index.query(s, t, mr) == BruteForce.reach(g, s, t, mr), s"s=$s t=$t ${LabelSeq.show(mr)}")
  }

  test("KbsScratch rejects a graph whose probe tables or visit array overflow an Int index") {
    // the require runs before any table is allocated
    intercept[IllegalArgumentException](new KbsScratch(Int.MaxValue / 3 + 1, 1)) // 3·|V| probe tables
    intercept[IllegalArgumentException](new KbsScratch(Int.MaxValue / 6 + 1, 6)) // k·|V| visit array
  }

  test("Kbs.run's insert attempts come in a pinned order") {
    // an order-dependent fingerprint of every (direction, vertex, MR) tried, with the builder's
    // RootInserters, so PR3 fires; pinned from the kernel-BFS that scanned whole adjacencies
    val cases = Seq(
      (TestGraphs.random(61, n = 40, e = 150, labels = 3), 2, (2184L, 1506L, 2041519766529174394L)),
      (TestGraphs.smallBa(62, n = 40, e = 160, labels = 3), 3, (14253L, 12805L, -1667696808503899910L)),
      (TestGraphs.random(63, n = 30, e = 110, labels = 2), 3, (6360L, 5869L, 2910258514267466928L)),
    )
    for (((g, k, pinned), i) <- cases.zipWithIndex) {
      val log = attempts(g, k)
      assert(log.rejected > 0, s"case $i: no insert rejected")
      assert((log.n, log.rejected, log.hash) == pinned, s"case $i")
    }
  }

  test("property: RlcIndexBuilder keeps the literal Algorithm 2's entry lists, in order") {
    // also: no root's search tries a (direction, vertex, MR) twice
    val prop = Prop.forAll(genCase) { c =>
      val g = c.graph
      val sameLists = entryLists(RlcIndexBuilder.build(g, c.k)) == entryLists(LiveQueryInserter.build(g, c.k))
      (sameLists :| "entry lists") && (triesEachOnce(g, c.k) :| "each (direction, vertex, MR) tried once per root")
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(20230401L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }
}

object RlcIndexBuilderSpec {

  /** Passes every attempt on to `inner`, noting whether one repeats a
    * (direction, vertex, MR) tried since `tried` was last cleared.
    */
  final class RepeatCheck(var inner: Inserter) extends Inserter {
    val tried = scala.collection.mutable.HashSet.empty[(Boolean, Int, Long)]
    var repeated = false
    private def note(out: Boolean, y: Int, mr: Long): Unit = if (!tried.add((out, y, mr))) repeated = true
    def insertOut(y: Int, mr: Long): Boolean = { note(true, y, mr); inner.insertOut(y, mr) }
    def insertIn(y: Int, mr: Long): Boolean = { note(false, y, mr); inner.insertIn(y, mr) }
  }

  /** Passes every attempt on to `inner`, counting attempts and rejections
    * and folding each (direction, vertex, MR) into an order-dependent hash.
    */
  final class AttemptLog(var inner: Inserter) extends Inserter {
    var n = 0L
    var rejected = 0L
    var hash = 0xcbf29ce484222325L
    private def note(out: Boolean, y: Int, mr: Long, ok: Boolean): Boolean = {
      n += 1
      if (!ok) rejected += 1
      for (x <- Seq(if (out) 1L else 2L, y.toLong, mr)) hash = (hash ^ x) * 0x100000001b3L
      ok
    }
    def insertOut(y: Int, mr: Long): Boolean = note(true, y, mr, inner.insertOut(y, mr))
    def insertIn(y: Int, mr: Long): Boolean = note(false, y, mr, inner.insertIn(y, mr))
  }

  /** Every insert attempt `Kbs.run` makes over `g`'s roots in access order,
    * with the builder's [[RootInserter]]s.
    */
  def attempts(g: LabeledGraph, k: Int): AttemptLog = {
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    val index   = new RlcIndex(g.numVertices, k, aid)
    val scratch = new KbsScratch(g.numVertices, k)
    val log     = new AttemptLog(KeepAll)
    order.foreach { root =>
      val ins = new RootInserter(index, root, scratch)
      log.inner = ins
      Kbs.run(g, root, k, log, scratch)
      RootInserter.append(index, root, ins.lists, ins.mrs, ins.n)
    }
    log
  }

  /** Keeps every entry, as the ETC baseline does. */
  object KeepAll extends Inserter {
    def insertOut(y: Int, mr: Long): Boolean = true
    def insertIn(y: Int, mr: Long): Boolean = true
  }

  /** Does every root's search over `g` try each (direction, vertex, MR) at
    * most once? Checked for `Kbs.run` with the builder's [[RootInserter]]s
    * and for `Kbs.forward` with [[KeepAll]], as the ETC baseline calls it.
    */
  def triesEachOnce(g: LabeledGraph, k: Int): Boolean = {
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    val index   = new RlcIndex(g.numVertices, k, aid)
    val scratch = new KbsScratch(g.numVertices, k)
    val check   = new RepeatCheck(KeepAll)
    order.foreach { root =>
      val ins = new RootInserter(index, root, scratch)
      check.inner = ins; check.tried.clear()
      Kbs.run(g, root, k, check, scratch)
      RootInserter.append(index, root, ins.lists, ins.mrs, ins.n)
      check.inner = KeepAll; check.tried.clear()
      Kbs.forward(g, root, k, check, scratch)
    }
    !check.repeated
  }

  /** The entries of the list with list id `l` in `view`, in order. */
  def viewList(view: CaseOne, l: Int): Seq[(Int, Long)] = {
    val (from, to) = (view.from(l), view.to(l))
    view.hops(l).slice(from, to).toSeq.zip(view.mrs(l).slice(from, to))
  }

  /** A graph over `n` vertices given by its `(src, label, dst)` edges. */
  final case class Case(k: Int, n: Int, edges: List[(Int, Int, Int)]) {
    def graph: LabeledGraph =
      LabeledGraph.fromEdges(n, edges.map(_._2).maxOption.fold(1)(_ + 1), edges.toArray)
  }

  val genCase: Gen[Case] = for {
    k      <- Gen.choose(1, 4)
    n      <- Gen.choose(1, 8)
    labels <- Gen.choose(1, 3)
    edge    = for {
      s     <- Gen.choose(0, n - 1)
      d     <- Gen.frequency(1 -> Gen.const(s), 3 -> Gen.choose(0, n - 1))
      l     <- Gen.choose(0, labels - 1)
      extra <- Gen.option(Gen.choose(0, labels - 1)) // a parallel edge, maybe with another label
    } yield (s, l, d) :: extra.map(l2 => (s, l2, d)).toList
    edges  <- Gen.choose(0, 3 * n).flatMap(Gen.listOfN(_, edge))
  } yield Case(k, n, edges.flatten)

  // Drop one edge, or lower k: every shrink is again a valid case.
  implicit val shrinkCase: Shrink[Case] = Shrink.withLazyList { c =>
    c.edges.indices.to(LazyList).map(i => c.copy(edges = c.edges.patch(i, Nil, 1))) #:::
      (1 until c.k).to(LazyList).map(k => c.copy(k = k))
  }
}
