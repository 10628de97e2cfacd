package repro.core

import repro.graph.LabeledGraph

/** Insert callback for a KBS run from a fixed root. Returns true if the
  * entry was recorded, false if it was pruned (PR1/PR2) — in the kernel-BFS
  * phase a false return triggers PR3 (the visited vertex and everything
  * beyond it are skipped).
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
  *  - a stamped visited array over `(vertex, phase)` product states and
  *    growable queues (kernel-search and kernel-BFS);
  *  - the kernel map of one search: kernel code → slot, slots numbered in
  *    first-seen order, each with a reusable frontier array;
  *  - one search root's [[RootInserter]] state: the probe tables of the
  *    root's own lists, the own-entry chains and the recorded entries.
  *    One inserter at a time may use a scratch.
  *
  * Every table is stamped (per kernel-BFS, per search, per root), so none
  * is ever cleared, and one scratch can serve any number of roots and
  * builds over graphs of at most `numVertices` vertices and k at most `k`.
  * Every builder makes its scratch before any search, so `k` is checked here.
  */
final class KbsScratch(val numVertices: Int, val k: Int) {
  require(k >= 1 && k <= LabelSeq.MaxLen, s"k=$k outside 1..${LabelSeq.MaxLen}")
  require(numVertices.toLong * math.max(k, 4) < Int.MaxValue, "product state space too large")
  val visit = new Array[Int](numVertices * k)
  var stamp = 0

  var qv = new Array[Int](1024)   // kernel-search queue: vertices
  var qs = new Array[Long](1024)  //                      packed sequences
  var bq = new Array[Int](1024)   // kernel-BFS queue: packed v*k+phase

  def growSearch(needed: Int): Unit =
    if (needed > qv.length) {
      val cap = math.max(needed, qv.length * 2)
      qv = java.util.Arrays.copyOf(qv, cap)
      qs = java.util.Arrays.copyOf(qs, cap)
    }

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
  private[core] val ownHead  = new Array[Int](4 * numVertices) // list id -> (root stamp, latest own entry)
  // recorded entries: list id, MR, earlier own entry of the same list or -1
  private[core] var lists = new Array[Int](16)
  private[core] var mrs   = new Array[Long](16)
  private[core] var next  = new Array[Int](16)

  private[core] def growRecorded(needed: Int): Unit =
    if (needed > lists.length) {
      val cap = math.max(needed, lists.length * 2)
      lists = java.util.Arrays.copyOf(lists, cap)
      mrs   = java.util.Arrays.copyOf(mrs, cap)
      next  = java.util.Arrays.copyOf(next, cap)
    }
}

object KbsScratch {
  /** Kernel slots before the kernel map first grows. */
  val InitialKernels = 32

  private def hash(kernel: Long): Int = ((kernel * 0x9E3779B97F4A7C15L) >>> 32).toInt
}

/** Eager kernel-based search (paper Sec. IV + Algorithm 2).
  *
  * Phase 1, kernel-search: plain BFS to depth k enumerating *all* label
  * sequences (no vertex marking — every path matters); every visit
  * `(y, seq)` attempts an index insert with `MR(seq)` and registers `y` as a
  * frontier vertex of the kernel candidate `MR(seq)` (every sequence is a
  * power of its own MR, so `y` sits on a candidate `MR^+` path).
  *
  * Phase 2, kernel-BFS: per kernel candidate `L` (length m), a BFS over
  * `(vertex, phase)` states guided by `L^+`; backward search at phase j
  * (j labels of the current copy already prepended) accepts only in-edges
  * labeled `L[m-1-j]`, inserts an entry whenever a copy completes, and
  * applies PR3: a pruned insert stops the expansion through that vertex.
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

    // ---- kernel-search (depth <= k, all paths) ----
    scratch.clearKernels()
    scratch.growSearch(1)
    scratch.qv(0) = root; scratch.qs(0) = LabelSeq.Empty
    var head = 0
    var tail = 1
    while (head < tail) {
      val x   = scratch.qv(head)
      val seq = scratch.qs(head)
      head += 1
      val len = LabelSeq.length(seq)
      var i = adjOff(x)
      val end = adjOff(x + 1)
      while (i < end) {
        val y = adjVert(i)
        val l = adjLabel(i)
        val seq2 = if (forwardDir) LabelSeq.append(seq, l) else LabelSeq.prepend(l, seq)
        val m    = LabelSeq.mr(seq2)
        if (forwardDir) ins.insertIn(y, m) else ins.insertOut(y, m)
        scratch.addFrontier(m, y)
        if (len + 1 < k) {
          scratch.growSearch(tail + 1)
          scratch.qv(tail) = y; scratch.qs(tail) = seq2
          tail += 1
        }
        i += 1
      }
    }

    // ---- kernel-BFS per kernel candidate, in first-seen order ----
    var s = 0
    while (s < scratch.numKernels) {
      kernelBfs(g, root, k, scratch.kernels(s), scratch.frontiers(s), scratch.frontierN(s), ins,
        scratch, forwardDir, adjOff, adjVert, adjLabel)
      s += 1
    }
  }

  private def kernelBfs(g: LabeledGraph, root: Int, k: Int, kernel: Long,
                        frontier: Array[Int], frontierSize: Int,
                        ins: Inserter, scratch: KbsScratch, forwardDir: Boolean,
                        adjOff: Array[Int], adjVert: Array[Int], adjLabel: Array[Int]): Unit = {
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
      var j = adjOff(x)
      val end = adjOff(x + 1)
      while (j < end) {
        if (adjLabel(j) == expected) {
          val y = adjVert(j)
          val complete = phase + 1 == m
          val nphase   = if (complete) 0 else phase + 1
          val nst      = y * k + nphase
          if (visit(nst) != stamp) {
            if (complete && !(if (forwardDir) ins.insertIn(y, kernel) else ins.insertOut(y, kernel))) {
              visit(nst) = stamp // PR3: entry derivable — skip y and everything beyond
            } else {
              visit(nst) = stamp
              scratch.growBfs(tail + 1)
              scratch.bq(tail) = nst; tail += 1
            }
          }
        }
        j += 1
      }
    }
  }
}
