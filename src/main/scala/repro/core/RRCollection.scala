package repro.core

import java.util.SplittableRandom
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import repro.graphs.LiveEdges

/** A batch of RR sets in one flat format: set `i` is
  * `members(offsets(i) until offsets(i + 1))`, in BFS order from its target.
  * The RIS estimator and the shared influence oracle both store their RR sets
  * this way; [[RRCollection.invert]] gives the vertex → set-id index both of them read.
  *
  * @param n       vertex count of the graph the sets were drawn on
  * @param offsets set boundaries into `members`, length `size + 1`
  * @param members concatenated set members
  */
final class RRCollection(val n: Int, val offsets: Array[Int], val members: Array[Int]) {
  require(offsets.nonEmpty && offsets.last == members.length,
          "offsets must end at the member count")

  /** Number of RR sets. */
  def size: Int = offsets.length - 1

  /** Stored RR-set vertices Σ|R| — the RIS sample size of paper Table 1. */
  def storedVertices: Long = members.length.toLong
}

object RRCollection {

  /** Largest set count or stored-vertex count that Int offsets and JVM
    * arrays can hold.
    */
  val MaxLength: Int = Int.MaxValue - 8

  /** `a` if it holds `need` entries, else a copy grown to max(`need`,
    * 2·length) entries, capped at [[MaxLength]]; `need` ≤ [[MaxLength]].
    */
  private[core] def grow(a: Array[Int], need: Long): Array[Int] =
    if (need <= a.length) a
    else java.util.Arrays.copyOf(a, math.max(need, math.min(2L * a.length, MaxLength.toLong)).toInt)

  /** Draws `count` RR sets over the in-edges `in`, one after another, and
    * adds their traversal cost to `costs`.
    *
    * An RR set for a uniformly random target z is the set of vertices that
    * can reach z in a live-edge random graph G ~ 𝒢 (paper Definition 3.1,
    * §3.5). Each set draws z with `rng.nextInt(n)` and is then the forward
    * cascade [[Ic.simulate]] from z over `in`, which flips one coin per
    * examined in-edge. Cost accounting follows §3.5.2: each vertex added to
    * the set costs one vertex traversal, and each examined in-edge of a
    * member costs one edge traversal, so the edge cost of a set R is
    * exactly its weight w(R) = Σ_{v∈R} d⁻(v).
    */
  def generate(in: LiveEdges, count: Int, rng: SplittableRandom,
               costs: Costs): RRCollection = {
    require(count >= 0 && count <= MaxLength, s"RR-set count $count outside [0, $MaxLength]")
    val scratch = new SimScratch(in.n)
    val target = new Array[Int](1)
    val offsets = new Array[Int](count + 1)
    var members = new Array[Int](math.max(16, count))
    var len = 0
    var i = 0
    while (i < count) {
      target(0) = rng.nextInt(in.n)
      val size = Ic.simulate(in, target, 1, rng, scratch, costs)
      val total = len.toLong + size
      require(total <= MaxLength, s"stored RR-set vertices $total exceed $MaxLength")
      members = grow(members, total)
      System.arraycopy(scratch.queue, 0, members, len, size)
      len = total.toInt
      i += 1
      offsets(i) = len
    }
    new RRCollection(in.n, offsets, java.util.Arrays.copyOf(members, len))
  }

  /** Name prefix of [[run]]'s helper threads, `rr-oracle-<i>`. */
  private[repro] val ThreadName: String = "rr-oracle"

  /** Inverted index vertex → set ids of the sets of `part(b)` for b in
    * `0 until parts`, the ids of each part following those of the parts
    * before it, in pages of [[PageSize]] ids (see [[Index]]); a part whose
    * ids straddle a page boundary is refused. One counting sort over the
    * parts, without concatenating them, on up to `threads` workers of
    * [[run]]: each produces whole parts and [[count counts]] each in the
    * same pass, the caller [[place places]] the counts, then each worker
    * [[scatter scatters]] a contiguous range of parts, so that within a
    * vertex's ids the workers write apart rather than into shared cache
    * lines. Every vertex's ids ascend, and the index does not depend on
    * `threads`.
    */
  def invert(n: Int, parts: Int, threads: Int)(part: Int => RRCollection): Index = {
    val ps = new Array[RRCollection](parts)
    val counts = new Array[Array[Int]](parts)
    run(parts, threads) { b => ps(b) = part(b); counts(b) = count(ps(b)) }
    val firstIds = ps.scanLeft(0L)(_ + _.size)
    val index = place(n, ps, firstIds, counts)
    val workers = math.min(parts, threads)
    run(workers, workers) { w =>
      var b = (w.toLong * parts / workers).toInt
      while (b < (w + 1L) * parts / workers) {
        scatter(ps(b), firstIds(b).toInt, counts(b), index.ids)
        b += 1
      }
    }
    index
  }

  /** Set ids per page of an [[Index]], which stores each id as its low 16
    * bits: 16 of the oracle's blocks of 4,096 ids.
    */
  val PageSize: Int = 1 << 16

  /** Inverted index vertex → set ids from [[invert]]. Set ids are cut into
    * `pages` pages of [[PageSize]], and `ids` stores each as its low 16
    * bits: vertex v's ids in page p are `p·PageSize + ids(j)` for j in
    * `offsets(v·pages + p) until offsets(v·pages + p + 1)`. Vertex v's ids
    * ascend, page by page, over `offsets(v·pages) until offsets((v + 1)·pages)`.
    * That is 2 bytes per stored id plus 4(n·pages + 1) bytes of offsets.
    */
  final class Index(val n: Int, val pages: Int, val offsets: Array[Int], val ids: Array[Char]) {

    /** Number of indexed sets that contain vertex v. */
    def count(v: Int): Int = offsets((v + 1) * pages) - offsets(v * pages)

    /** Vertex offsets, length n + 1: vertex v's ids are stored at
      * `vertexOffsets(v) until vertexOffsets(v + 1)`. With one page they
      * are `offsets` itself.
      */
    def vertexOffsets: Array[Int] =
      if (pages == 1) offsets else Array.tabulate(n + 1)(v => offsets(v * pages))
  }

  /** Length n·`pages` + 1 of an index's offsets; fails with an
    * `IllegalArgumentException` naming n and `pages`, before anything is
    * allocated, when that exceeds [[MaxLength]].
    */
  private[core] def offsetsLength(n: Int, pages: Int): Int = {
    val length = n.toLong * pages + 1
    require(length <= MaxLength,
            s"index offsets n·pages + 1 = $length exceed $MaxLength (n=$n, pages=$pages)")
    length.toInt
  }

  /** Per-vertex member counts of `part`: entry v is the number of its sets
    * that contain v.
    */
  private def count(part: RRCollection): Array[Int] = {
    val counts = new Array[Int](part.n)
    val members = part.members
    var j = 0
    while (j < members.length) { counts(members(j)) += 1; j += 1 }
    counts
  }

  /** The index layout of `parts` in order, part b's set ids starting at
    * `firstIds(b)`, from each part's [[count]]: the (vertex, page) offsets
    * and an unfilled `ids` array. Turns each non-empty part's counts in
    * place into its write cursors for [[scatter]]: entry v becomes
    * `offsets(v·pages + p)`, p the part's page, plus the counts of v in the
    * earlier parts.
    */
  private def place(n: Int, parts: Array[RRCollection], firstIds: Array[Long],
                    counts: Array[Array[Int]]): Index = {
    val sets = firstIds.last
    val stored = parts.map(_.storedVertices).sum
    require(sets <= MaxLength, s"RR-set count $sets exceeds $MaxLength")
    require(stored <= MaxLength, s"stored RR-set vertices $stored exceed $MaxLength")
    parts.foreach(p => require(p.n == n, s"part on ${p.n} vertices, expected $n"))
    val placed = parts.indices.filter(parts(_).size > 0)
    placed.foreach { b =>
      val (first, last) = (firstIds(b), firstIds(b + 1) - 1)
      require(first / PageSize == last / PageSize,
              s"part $b holds set ids $first to $last across a $PageSize-id page boundary")
    }
    val pages = math.max(1, ((sets + PageSize - 1) / PageSize).toInt)
    val offsets = new Array[Int](offsetsLength(n, pages))
    placed.foreach { b =>
      val c = counts(b)
      val at = (firstIds(b) / PageSize).toInt + 1
      var v = 0
      while (v < n) { offsets(v * pages + at) += c(v); v += 1 }
    }
    var e = 1
    while (e < offsets.length) { offsets(e) += offsets(e - 1); e += 1 }
    val pos = java.util.Arrays.copyOf(offsets, offsets.length - 1)
    placed.foreach { b =>
      val c = counts(b)
      val at = (firstIds(b) / PageSize).toInt
      var v = 0
      while (v < n) { val k = c(v); c(v) = pos(v * pages + at); pos(v * pages + at) += k; v += 1 }
    }
    new Index(n, pages, offsets, new Array[Char](stored.toInt))
  }

  /** Writes the low 16 bits of the ids of `part`'s sets, numbered from
    * `firstId`, into `ids` at its `cursors` from [[place]], advancing them.
    * Parts write disjoint ranges of `ids`, so they may be scattered
    * concurrently.
    */
  private def scatter(part: RRCollection, firstId: Int, cursors: Array[Int],
                      ids: Array[Char]): Unit = {
    val offsets = part.offsets
    val members = part.members
    var i = 0
    while (i < part.size) {
      val low = (firstId + i).toChar
      var j = offsets(i)
      while (j < offsets(i + 1)) {
        val u = members(j)
        ids(cursors(u)) = low
        cursors(u) += 1
        j += 1
      }
      i += 1
    }
  }

  /** Runs `task` on 0 until `count` over min(`count`, `threads`) workers:
    * the caller's thread and daemon `rr-oracle-<i>` threads, each taking
    * the next task until none is left, a task has failed or the caller is
    * interrupted. Once every thread has ended, the first failure is
    * rethrown as it was thrown, so a run leaves no thread behind. An
    * interrupted caller gets an `InterruptedException`, whatever the worker
    * count, and never a partial result.
    */
  private[repro] def run(count: Int, threads: Int)(task: Int => Unit): Unit = {
    val next = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]
    val work: Runnable = () => {
      var i = next.getAndIncrement()
      while (i < count && failure.get == null && !Thread.currentThread.isInterrupted) {
        try task(i)
        catch { case e: Throwable => failure.compareAndSet(null, e) }
        i = next.getAndIncrement()
      }
    }
    val helpers = (1 until math.min(count, threads)).map { i =>
      val t = new Thread(work, s"$ThreadName-$i")
      t.setDaemon(true)
      t.start()
      t
    }
    work.run()
    // An interrupted caller stops the threads from taking further tasks.
    try {
      helpers.foreach(_.join())
      if (Thread.interrupted()) throw new InterruptedException(s"$ThreadName run interrupted")
    } catch { case e: InterruptedException => failure.compareAndSet(null, e); throw e }
    if (failure.get != null) throw failure.get
  }
}
