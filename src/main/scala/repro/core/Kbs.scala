package repro.core

import repro.graph.LabeledGraph

/** Insert callback for a KBS run from a fixed root. Returns true if the
  * entry was recorded, false if it was pruned (PR1/PR2). [[Kbs]] calls it at
  * most once per (vertex, MR) in one search, and reads the result only at a
  * kernel-BFS completion, where a false return triggers PR3 (the visited
  * vertex and everything beyond it are skipped).
  */
trait Inserter {
  /** Backward KBS from `root` visited `y` via a path y ⇝ root whose k-MR is
    * `mr`: record `(root, mr)` in `L_out(y)`.
    */
  def insertOut(y: Int, mr: Long): Boolean

  /** Forward KBS from `root` visited `y` via a path root ⇝ y whose k-MR is
    * `mr`: record `(root, mr)` in `L_in(y)`.
    */
  def insertIn(y: Int, mr: Long): Boolean
}

/** Reusable per-thread scratch space, so a full index build allocates
  * nothing per visit:
  *
  *  - a stamped visited array over `(vertex, phase)` product states and a
  *    growable kernel-BFS queue;
  *  - the kernel map of one search: kernel code → slot, slots numbered in
  *    first-seen order, each with a reusable frontier array;
  *  - one search root's [[RootInserter]] state: the probe tables of the
  *    root's own lists, the recorded entries and the MRs recorded into
  *    `L_out(root)`. One inserter at a time may use a scratch.
  *
  * Every table is stamped (per kernel-BFS, per search, per root), so none
  * is ever cleared, and one scratch can serve any number of roots and
  * builds over graphs of at most `numVertices` vertices and k at most `k`.
  * Every builder makes its scratch before any search, so `k` is checked here,
  * and so is the size of the largest per-vertex tables, the probe tables
  * (3·|V|) and `visit` (k·|V|), before any of them is allocated.
  */
final class KbsScratch(val numVertices: Int, val k: Int) {
  require(k >= 1 && k <= LabelSeq.MaxLen, s"k=$k outside 1..${LabelSeq.MaxLen}")
  require(numVertices.toLong * math.max(k, 3) < Int.MaxValue, "product state space too large")
  val visit = new Array[Int](numVertices * k)
  var stamp = 0

  var bq = new Array[Int](1024) // kernel-BFS queue: packed v*k+phase

  def growBfs(needed: Int): Unit =
    if (needed > bq.length) bq = java.util.Arrays.copyOf(bq, math.max(needed, bq.length * 2))

  // ---- kernel map: open addressing with linear probing; a cell holds
  // (search stamp << 32 | slot) and is live only under the current stamp ----
  private var kmCells = new Array[Long](2 * KbsScratch.InitialKernels)
  private var kmStamp = 0
  private[core] var kernels    = new Array[Long](KbsScratch.InitialKernels) // slot -> kernel code
  private[core] var frontiers  = Array.fill(KbsScratch.InitialKernels)(new Array[Int](8)) // slot -> vertices
  private[core] var frontierN  = new Array[Int](KbsScratch.InitialKernels)  // slot -> frontier size
  private[core] var numKernels = 0

  /** Start a search with an empty kernel map. */
  private[core] def clearKernels(): Unit = { kmStamp += 1; numKernels = 0 }

  /** Register `v` as a frontier vertex of kernel candidate `kernel`. */
  private[core] def addFrontier(kernel: Long, v: Int): Unit = {
    val s = kernelSlot(kernel)
    val c = frontierN(s)
    if (c == frontiers(s).length) frontiers(s) = java.util.Arrays.copyOf(frontiers(s), c * 2)
    frontiers(s)(c) = v
    frontierN(s) = c + 1
  }

  /** The cell of `kernel` in the map, or the free cell where it goes. */
  private def cell(kernel: Long): Int = {
    val mask = kmCells.length - 1
    var pos = KbsScratch.hash(kernel) & mask
    while ((kmCells(pos) >>> 32).toInt == kmStamp && kernels(kmCells(pos).toInt) != kernel)
      pos = (pos + 1) & mask
    pos
  }

  private def kernelSlot(kernel: Long): Int = {
    val pos = cell(kernel)
    if ((kmCells(pos) >>> 32).toInt == kmStamp) return kmCells(pos).toInt
    val s = numKernels
    if (s == kernels.length) {
      kernels = java.util.Arrays.copyOf(kernels, s * 2)
      frontierN = java.util.Arrays.copyOf(frontierN, s * 2)
      frontiers = Array.tabulate(s * 2)(i => if (i < s) frontiers(i) else new Array[Int](8))
    }
    kernels(s) = kernel
    frontierN(s) = 0
    numKernels = s + 1
    kmCells(pos) = kmStamp.toLong << 32 | s
    if (2 * numKernels > kmCells.length) { // keep the load at most 1/2
      kmCells = new Array[Long](kmCells.length * 2)
      for (i <- 0 until numKernels) kmCells(cell(kernels(i))) = kmStamp.toLong << 32 | i
    }
    s
  }

  // ---- RootInserter state ----
  private[core] var rootStamp = 0 // roots begun on this scratch
  private[core] val inProbe  = new Array[Int](3 * numVertices) // hop -> (root stamp, from, to) in L_in(root)
  private[core] val outProbe = new Array[Int](3 * numVertices) // hop -> (root stamp, from, to) in L_out(root)
  // recorded entries: list id, MR
  private[core] var lists = new Array[Int](16)
  private[core] var mrs   = new Array[Long](16)
  // MRs recorded into L_out(root), at most one per backward kernel
  private[core] var cycleMrs = new Array[Long](8)

  private[core] def growRecorded(needed: Int): Unit =
    if (needed > lists.length) {
      val cap = math.max(needed, lists.length * 2)
      lists = java.util.Arrays.copyOf(lists, cap)
      mrs   = java.util.Arrays.copyOf(mrs, cap)
    }

  private[core] def growCycle(needed: Int): Unit =
    if (needed > cycleMrs.length)
      cycleMrs = java.util.Arrays.copyOf(cycleMrs, math.max(needed, cycleMrs.length * 2))
}

object KbsScratch {
  /** Kernel slots before the kernel map first grows. */
  val InitialKernels = 32

  private def hash(kernel: Long): Int = ((kernel * 0x9E3779B97F4A7C15L) >>> 32).toInt
}

/** Eager kernel-based search (paper Sec. IV + Algorithm 2).
  *
  * Phase 1, kernel-search: a depth-first walk of every path of length at
  * most k from the root (no vertex marking — every path matters); every
  * visit `(y, seq)` registers `y` as a frontier vertex of the kernel
  * candidate `MR(seq)` (every sequence is a power of its own MR, so `y`
  * sits on a candidate `MR^+` path). It makes no inserts.
  *
  * Phase 2, kernel-BFS: per kernel candidate `L` (length m), a BFS over
  * `(vertex, phase)` states guided by `L^+`, seeded with the candidate's
  * frontier at phase 0. Seeding a frontier vertex attempts its depth-≤k
  * insert, once per (vertex, kernel), and ignores the result. Backward
  * search at phase j (j labels of the current copy already prepended)
  * expands only along in-edges labeled `L[m-1-j]`, and reads just that
  * `(vertex, label)` group of [[LabeledGraph.inByLabel]] (forward: `L[j]`,
  * [[LabeledGraph.outByLabel]]); a group keeps CSR order, so the visit
  * order is that of a filtered scan of the whole adjacency. It inserts an
  * entry whenever a copy completes and applies PR3: a pruned insert stops
  * the expansion through that vertex. A state is marked once, so each
  * (vertex, MR) pair is tried at most once per search.
  */
object Kbs {

  def run(g: LabeledGraph, root: Int, k: Int, ins: Inserter, scratch: KbsScratch): Unit = {
    backward(g, root, k, ins, scratch)
    forward(g, root, k, ins, scratch)
  }

  def backward(g: LabeledGraph, root: Int, k: Int, ins: Inserter, scratch: KbsScratch): Unit =
    search(g, root, k, ins, scratch, forwardDir = false)

  def forward(g: LabeledGraph, root: Int, k: Int, ins: Inserter, scratch: KbsScratch): Unit =
    search(g, root, k, ins, scratch, forwardDir = true)

  private def search(g: LabeledGraph, root: Int, k: Int, ins: Inserter,
                     scratch: KbsScratch, forwardDir: Boolean): Unit = {
    val adjOff   = if (forwardDir) g.outOff else g.inOff
    val adjVert  = if (forwardDir) g.outDst else g.inSrc
    val adjLabel = if (forwardDir) g.outLabel else g.inLabel

    // ---- kernel-search (depth <= k, all paths): collect the kernel candidates ----
    def collect(x: Int, seq: Long): Unit = {
      var i = adjOff(x)
      val end = adjOff(x + 1)
      while (i < end) {
        val y    = adjVert(i)
        val seq2 = if (forwardDir) LabelSeq.append(seq, adjLabel(i)) else LabelSeq.prepend(adjLabel(i), seq)
        scratch.addFrontier(LabelSeq.mr(seq2), y)
        if (LabelSeq.length(seq2) < k) collect(y, seq2)
        i += 1
      }
    }
    scratch.clearKernels()
    collect(root, LabelSeq.Empty)

    // ---- kernel-BFS per kernel candidate, in first-seen order ----
    val groups = if (forwardDir) g.outByLabel else g.inByLabel
    var s = 0
    while (s < scratch.numKernels) {
      kernelBfs(k, scratch.kernels(s), scratch.frontiers(s), scratch.frontierN(s), ins,
        scratch, forwardDir, g.numLabels, groups.off, groups.vert)
      s += 1
    }
  }

  private def kernelBfs(k: Int, kernel: Long,
                        frontier: Array[Int], frontierSize: Int,
                        ins: Inserter, scratch: KbsScratch, forwardDir: Boolean,
                        numLabels: Int, groupOff: Array[Int], groupVert: Array[Int]): Unit = {
    val m = LabelSeq.length(kernel)
    scratch.stamp += 1
    val stamp = scratch.stamp
    val visit = scratch.visit

    var head = 0
    var tail = 0
    var i = 0
    while (i < frontierSize) {
      val v  = frontier(i)
      val st = v * k // phase 0
      if (visit(st) != stamp) {
        visit(st) = stamp
        if (forwardDir) ins.insertIn(v, kernel) else ins.insertOut(v, kernel) // depth <= k: no PR3
        scratch.growBfs(tail + 1)
        scratch.bq(tail) = st; tail += 1
      }
      i += 1
    }

    while (head < tail) {
      val st = scratch.bq(head)
      head += 1
      val x     = st / k
      val phase = st % k
      val expected = if (forwardDir) LabelSeq.labelAt(kernel, phase)
                     else LabelSeq.labelAt(kernel, m - 1 - phase)
      val complete = phase + 1 == m
      val nphase   = if (complete) 0 else phase + 1
      // only x's edges labeled `expected`, in CSR order
      var j = groupOff(x * numLabels + expected)
      val end = groupOff(x * numLabels + expected + 1)
      while (j < end) {
        val y   = groupVert(j)
        val nst = y * k + nphase
        if (visit(nst) != stamp) {
          if (complete && !(if (forwardDir) ins.insertIn(y, kernel) else ins.insertOut(y, kernel))) {
            visit(nst) = stamp // PR3: entry derivable — skip y and everything beyond
          } else {
            visit(nst) = stamp
            scratch.growBfs(tail + 1)
            scratch.bq(tail) = nst; tail += 1
          }
        }
        j += 1
      }
    }
  }
}
