package repro.perfbench

import java.security.MessageDigest
import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.analysis.SeedSetStats
import repro.core.Ris
import repro.exp.{BenchPlan, Instances, NetworkSpec, Sweep, SweepRow, Tables}
import repro.graphs.{GraphFrames, GraphGen, LocalGraph, ProbModel}
import repro.spark.{Alg, RRSetJob, TrialRow, TrialRunner}

/** Operations attempted and failed by one pass or check, plus a fingerprint
  * of its outputs ("" for none). Every pass of a run, traced or not, must
  * give the same fingerprint.
  */
final case class Outcome(attempted: Long, failed: Long, fingerprint: String)

/** One benchmark workload. `setup` is repeated, each time replacing the
  * previous inputs; passes are the measured, closed-loop unit of work.
  */
trait Workload {
  def name: String
  def defaultSeed: Long
  /** Plan rows and sizes as actually used, for the run manifest. */
  def plan: Seq[String]
  def setup(spark: SparkSession, seed: Long, t: Trace): Unit
  /** One pass through the program's top-level entry point. */
  def pass(spark: SparkSession): Outcome
  /** The same pass assembled from timed calls into each layer. */
  def tracedPass(spark: SparkSession, t: Trace): Outcome
  /** Output checks run once after the measured passes, on the outputs of
    * the latest traced pass.
    */
  def check(spark: SparkSession, t: Trace): Outcome
  def close(): Unit = ()
}

object Workloads {

  /** Two Karate k=1 rows, whose tiny jobs make fixed per-job cost and
    * serial driver steps dominate, and one BA_d k=4 row, whose few jobs are
    * dominated by kernel work (Oneshot's O(βknm) above all).
    */
  val sweep: Workload = new SweepWorkload("sweep", Seq(
    planRow("Karate", "UC0.1", 1)(_.copy(trials = 16, oneshotMax = 2, snapshotMax = 2, risMax = 4)),
    planRow("Karate", "IWC", 1)(_.copy(trials = 16, oneshotMax = 2, snapshotMax = 2, risMax = 4)),
    planRow("BA_d", "IWC", 4)(
      _.copy(trials = 8, oneshotMax = 8, snapshotMax = 4, risMin = 256, risMax = 1024))),
    golden = "cf3c0fd870e0df9ea895b5ad4dc6255bbd814d880a9cb1c08bf28cc148468b58")

  /** The two table paths built on Spark SQL and DataFrames: Table 3's
    * network statistics, then the Table 4 oracle. Neither runs `TrialRunner`.
    */
  val tables: Workload = new Combined("table3-table4", Seq(new Table3Workload, new OracleWorkload))

  val all: Seq[Workload] = Seq(sweep, tables)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** A plan row of [[BenchPlan]] with its sweep configuration edited. */
  private def planRow(network: String, model: String, k: Int)(
      edit: Sweep.Config => Sweep.Config): SweepRow = {
    val row = BenchPlan.sweepRow(network, model, k)
      .getOrElse(sys.error(s"no plan row $network/$model/k=$k"))
    row.copy(cfg = edit(row.cfg))
  }

  def digest(lines: Iterable[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes("UTF-8")))
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}

/** Workloads run as one: a pass runs every part's pass in order, and the
  * parts share the workload seed.
  */
final class Combined(val name: String, parts: Seq[Workload]) extends Workload {
  require(parts.map(_.defaultSeed).distinct.size == 1, "parts must share a default seed")
  val defaultSeed: Long = parts.head.defaultSeed
  def plan: Seq[String] = parts.flatMap(_.plan)
  def setup(spark: SparkSession, seed: Long, t: Trace): Unit = parts.foreach(_.setup(spark, seed, t))
  def pass(spark: SparkSession): Outcome = merge(parts.map(_.pass(spark)))
  def tracedPass(spark: SparkSession, t: Trace): Outcome = merge(parts.map(_.tracedPass(spark, t)))
  def check(spark: SparkSession, t: Trace): Outcome = merge(parts.map(_.check(spark, t)))
  override def close(): Unit = parts.foreach(_.close())

  private def merge(os: Seq[Outcome]): Outcome =
    Outcome(os.map(_.attempted).sum, os.map(_.failed).sum,
            if (os.forall(_.fingerprint.isEmpty)) "" else Workloads.digest(os.map(_.fingerprint)))
}

/** `Sweep.run` over plan rows with reduced grids and trial counts; each
  * row's oracle is built during set-up. The workload seed is the sweeps'
  * base seed; the oracles keep the plan's oracle seed.
  *
  * @param golden digest of every trial row at the default seed
  */
final class SweepWorkload(val name: String, rows: Seq[SweepRow], golden: String)
    extends Workload {
  val defaultSeed = 20200614L
  private val oracleTheta = 50000L
  private val oracleSeed = 909090L
  private var seed = defaultSeed
  private var insts: Seq[(SweepRow, LocalGraph, RRSetJob)] = Nil
  private var lastRows: Seq[Seq[(Alg, Long, Seq[TrialRow])]] = Nil

  private def grids(cfg: Sweep.Config): Seq[(Alg, Seq[Long])] = Seq(
    Alg.OneshotAlg -> Sweep.powersOfTwo(cfg.oneshotMax),
    Alg.SnapshotAlg -> Sweep.powersOfTwo(cfg.snapshotMax),
    Alg.RisAlg -> Sweep.powersOfTwo(cfg.risMax, cfg.risMin))

  private def pointSeed(cfg: Sweep.Config, alg: Alg, s: Long): Long =
    TrialRunner.mixSeed(cfg.baseSeed, (alg.name.hashCode.toLong << 32) ^ s)

  private def trialsPerPass: Long =
    rows.map(r => grids(r.cfg).map(_._2.size).sum.toLong * r.cfg.trials).sum

  def plan: Seq[String] = rows.map { r =>
    val c = r.cfg
    s"${r.id} T=${c.trials} oneshot=1..${c.oneshotMax} snapshot=1..${c.snapshotMax} " +
      s"ris=${c.risMin}..${c.risMax} refTheta=${c.refTheta} oracleTheta=$oracleTheta " +
      s"oracleSeed=$oracleSeed"
  }

  def setup(spark: SparkSession, seed: Long, t: Trace): Unit = {
    close()
    this.seed = seed
    insts = rows.map { r =>
      val g = t.time("graphs.build_s")(ProbModel.assign(r.network.build(), r.model))
      val o = t.time("oracle.build_s")(RRSetJob(spark, g, oracleTheta, oracleSeed))
      t.time("oracle.index_s")(o.invertedIndex)
      (r.copy(cfg = r.cfg.copy(baseSeed = seed)), g, o)
    }
  }

  def pass(spark: SparkSession): Outcome = {
    val results = insts.map { case (r, g, o) => Sweep.run(spark, g, o, r.k, r.cfg) }
    Outcome(trialsPerPass, 0L, Workloads.digest(results.map(_.toString)))
  }

  def tracedPass(spark: SparkSession, t: Trace): Outcome = {
    val out = insts.map { case (r, g, o) => decomposed(spark, r, g, o, t) }
    lastRows = out.map(_._2)
    t.add("oracle.eval_s", t("exp.eval_s"))
    Outcome(trialsPerPass, 0L, Workloads.digest(out.map(_._1.toString)))
  }

  /** `Sweep.run` re-assembled, in its order, from the calls it makes into
    * the spark, exp and oracle layers, each timed. Also returns the trial
    * rows that `Sweep.run` does not expose.
    */
  private def decomposed(spark: SparkSession, r: SweepRow, g: LocalGraph, o: RRSetJob,
                         t: Trace): (Sweep.Result, Seq[(Alg, Long, Seq[TrialRow])]) = {
    val cfg = r.cfg
    val raw = t.time("exp.trials_s") {
      for ((alg, grid) <- grids(cfg); s <- grid) yield
        (alg, s, TrialRunner.runCollect(spark, g, alg, s.toInt, r.k, cfg.trials,
                                        pointSeed(cfg, alg, s)))
    }
    val refSet = t.time("exp.reference_s")(
      Sweep.referenceSeedSet(g, r.k, cfg.refTheta, cfg.baseSeed + 777))
    val refKey = refSet.mkString(",")
    val allSets = (raw.flatMap(_._3.map(_.seed_set)) :+ refSet).distinct
    val infByKey = t.time("exp.eval_s")(o.influenceOfSets(allSets))
    val points = t.time("exp.summarise_s") {
      raw.map { case (alg, s, rows) =>
        val keys = rows.map(_.seed_key)
        val infs = keys.map(infByKey)
        Sweep.Point(
          alg = alg.name,
          sampleNumber = s,
          entropy = SeedSetStats.entropyOfKeys(keys),
          influences = infs,
          meanInfluence = infs.sum / infs.size,
          meanSampleSize = rows.map(_.sample_size.toDouble).sum / rows.size,
          meanVertexCost = rows.map(_.vertex_cost.toDouble).sum / rows.size,
          meanEdgeCost = rows.map(_.edge_cost.toDouble).sum / rows.size,
        )
      }
    }
    (Sweep.Result(points, refKey, infByKey(refKey)), raw)
  }

  /** Checks the trial rows of the latest decomposed pass: their digest
    * against the golden value (default seed only), and trial 0 of every
    * grid point against a single-threaded driver replay, which also yields
    * the `core.*` metrics.
    */
  def check(spark: SparkSession, t: Trace): Outcome = {
    var attempted = 0L
    var failed = 0L
    for (((r, g, _), raw) <- insts.zip(lastRows)) {
      val replays = raw.map { case (alg, s, rows) =>
        CoreReplay.Trial(alg, s.toInt, r.k, pointSeed(r.cfg, alg, s), trial = 0) -> rows
      }
      val replayed = CoreReplay.run(g, replays.map(_._1), t)
      for (((_, rows), rep) <- replays.zip(replayed)) {
        val row = rows.find(_.trial == 0).get
        attempted += 1
        if ((row.seed_key, row.vertex_cost, row.edge_cost, row.sample_size) !=
            (rep.seedSetKey, rep.vertexCost, rep.edgeCost, rep.sampleSize)) {
          failed += 1
          Console.err.println(s"[perfbench] replay mismatch ${r.id} ${row.alg} s=${row.sample_number}")
        }
      }
    }
    CoreReplay.derive(t)
    val rowsDigest = Workloads.digest(for {
      raw <- lastRows; (alg, s, rows) <- raw; row <- rows.sortBy(_.trial)
    } yield s"${alg.name}|$s|${row.trial}|${row.seed_key}|${row.vertex_cost}|" +
            s"${row.edge_cost}|${row.sample_size}")
    println(s"[perfbench] $name trial-row digest $rowsDigest")
    if (seed == defaultSeed) {
      attempted += 1
      if (rowsDigest != golden) {
        failed += 1
        Console.err.println(s"[perfbench] $name trial-row digest differs from golden $golden")
      }
    }
    Outcome(attempted, failed, "")
  }

  override def close(): Unit = { insts.foreach(_._3.unpersist()); insts = Nil }
}

/** The shared RR-set oracle on soc-Pokec~/IWC: build, inverted index,
  * Table 4 top-3, then evaluation of seed sets drawn from the workload
  * seed, which is also the oracle's seed.
  */
final class OracleWorkload extends Workload {
  val name = "oracle-pokec"
  val defaultSeed = 909090L
  private val network = Instances.pokec
  private val model = ProbModel.IWC
  private val theta = 30000L
  private val setCount = 2000
  private val setSize = 4
  private var seed = defaultSeed
  private var g: LocalGraph = _
  private var sets: Seq[Seq[Int]] = Nil
  private var oracle: Option[RRSetJob] = None

  def plan: Seq[String] = Seq(s"${network.name}/${model.name} theta=$theta " +
    s"sets=$setCount x $setSize vertices, top=3, reference k=$setSize")

  def setup(spark: SparkSession, seed: Long, t: Trace): Unit = {
    this.seed = seed
    g = t.time("graphs.build_s")(ProbModel.assign(network.build(), model))
    val rng = new SplittableRandom(seed)
    sets = Seq.fill(setCount)(Seq.fill(setSize)(rng.nextInt(g.n)).distinct.sorted)
  }

  def pass(spark: SparkSession): Outcome = tracedPass(spark, new Trace)

  /** Every step of this pass is already a call into the oracle layer, so
    * the untraced pass is this one with its timings discarded.
    */
  def tracedPass(spark: SparkSession, t: Trace): Outcome = {
    close()
    val o = t.time("oracle.build_s")(RRSetJob(spark, g, theta, seed))
    oracle = Some(o)
    val (offsets, ids) = t.time("oracle.index_s")(o.invertedIndex)
    val top = t.time("oracle.top_s")(Tables.table4Row(o))
    // Top-3 vertices by RR-set count, ties to the lower id as in table4Row.
    val topV = (0 until g.n).sortBy(v => (offsets(v) - offsets(v + 1), v)).take(top.size)
    val inf = t.time("oracle.eval_s")(o.influenceOfSets(sets ++ topV.map(Seq(_))))
    t.add("oracle.stored_vertices", ids.length.toDouble)
    t.add("oracle.rr_per_s", theta / t("oracle.build_s"))
    val failed = top.indices.count(i => inf(topV(i).toString) != top(i))
    Outcome(sets.size + top.size, failed,
            Workloads.digest(top.map(_.toString) ++ inf.toSeq.sorted.map(_.toString)))
  }

  /** The oracle's estimate of a reference seed set must lie within four
    * standard errors of an independent RIS estimate drawn with another seed.
    */
  def check(spark: SparkSession, t: Trace): Outcome = {
    val o = oracle.get
    val ref = Sweep.referenceSeedSet(g, setSize, 1L << 15, seed + 777)
    val est = o.influenceOfSets(Seq(ref))(ref.mkString(","))
    val risTheta = 1 << 16
    val ris = new Ris(g, risTheta)
    val rng = new SplittableRandom(seed ^ 0x5deece66dL)
    ris.build(rng)
    val indep = ref.map { v => val e = ris.estimate(v, rng); ris.update(v, rng); e }.sum
    def se(inf: Double, th: Double): Double = {
      val p = inf / g.n
      g.n * math.sqrt(p * (1 - p) / th)
    }
    val bound = 4 * math.hypot(se(est, theta.toDouble), se(indep, risTheta.toDouble))
    val ok = math.abs(est - indep) <= bound
    println(f"[perfbench] $name reference set oracle=$est%.3f ris=$indep%.3f " +
            f"|diff|=${math.abs(est - indep)}%.3f bound=$bound%.3f")
    Outcome(1L, if (ok) 0L else 1L, "")
  }

  override def close(): Unit = { oracle.foreach(_.unpersist()); oracle = None }
}

/** `Tables.table3` on one BA network generated from the workload seed, so
  * every pass runs the Spark SQL statistics of `GraphFrames` and no
  * influence-maximisation kernel.
  */
final class Table3Workload extends Workload {
  val name = "table3-stats"
  val defaultSeed = 909090L
  private val n = 100
  private val bigM = 3
  private var seed = defaultSeed
  private var g: LocalGraph = _
  private var spec: NetworkSpec = _
  private var expected: GraphFrames.NetworkStats = _

  /** Reference values at the default seed. */
  private val golden = GraphFrames.NetworkStats("", 100, 291, 16, 16, 0.10772200772200773,
                                                2.576363636363636)

  def plan: Seq[String] = Seq(s"GraphGen.baRandomlyOriented(n=$n, M=$bigM, seed) with distance")

  def setup(spark: SparkSession, seed: Long, t: Trace): Unit = {
    this.seed = seed
    g = t.time("graphs.build_s")(GraphGen.baRandomlyOriented(n, bigM, seed))
    val built = g
    spec = NetworkSpec(s"BA-n$n-M$bigM-seed$seed", starred = false, withDistance = true,
                       () => built)
    expected = Reference.networkStats(spec.name, g)
  }

  def pass(spark: SparkSession): Outcome = {
    val Seq(row) = Tables.table3(spark, Seq(spec))
    compare(row, expected)
  }

  def tracedPass(spark: SparkSession, t: Trace): Outcome = {
    val edges = GraphFrames.edgesDf(spark, g)
    val ext = t.time("graphs.degree_s")(GraphFrames.degreeExtremes(edges).head())
    val cc = t.time("graphs.clustering_s")(GraphFrames.clusteringCoefficient(spark, edges))
    val dist = t.time("graphs.distance_s")(GraphFrames.averageDistance(g))
    compare(GraphFrames.NetworkStats(spec.name, g.n, g.m, ext.getLong(0).toInt,
                                     ext.getLong(1).toInt, cc, dist), expected)
  }

  def check(spark: SparkSession, t: Trace): Outcome = {
    println(s"[perfbench] $name reference $expected")
    if (seed != defaultSeed) Outcome(0L, 0L, "")
    else compare(expected, golden).copy(fingerprint = "")
  }

  /** Six table cells: n, m, Δ⁺ and Δ⁻ exactly, clustering and average
    * distance to 1e-9.
    */
  private def compare(a: GraphFrames.NetworkStats, b: GraphFrames.NetworkStats): Outcome = {
    def near(x: Double, y: Double) = math.abs(x - y) <= 1e-9
    val cells = Seq(a.n == b.n, a.m == b.m, a.maxOut == b.maxOut, a.maxIn == b.maxIn,
                    near(a.clusteringCoef, b.clusteringCoef),
                    near(a.avgDistance, b.avgDistance))
    if (cells.contains(false)) Console.err.println(s"[perfbench] $name mismatch: $a vs $b")
    Outcome(cells.size, cells.count(!_), a.toString)
  }
}

/** Table 3 statistics computed locally and independently of `GraphFrames`:
  * the reference the Spark SQL results are checked against.
  */
object Reference {

  def networkStats(name: String, g: LocalGraph): GraphFrames.NetworkStats = {
    val nbrs = Array.fill(g.n)(Set.newBuilder[Int])
    for (u <- 0 until g.n; e <- g.outOffsets(u) until g.outOffsets(u + 1)) {
      val v = g.outDst(e)
      if (u != v) { nbrs(u) += v; nbrs(v) += u }
    }
    val adj = nbrs.map(_.result().toArray.sorted)
    var triangles = 0L
    for (a <- 0 until g.n; b <- adj(a) if b > a; c <- adj(b) if c > b)
      if (java.util.Arrays.binarySearch(adj(a), c) >= 0) triangles += 1
    val triplets = adj.map(x => x.length.toLong * (x.length - 1) / 2).sum
    val cc = if (triplets == 0) 0.0 else 3.0 * triangles / triplets
    GraphFrames.NetworkStats(name, g.n, g.m, g.maxOutDeg, g.maxInDeg, cc, averageDistance(adj))
  }

  private def averageDistance(adj: Array[Array[Int]]): Double = {
    val n = adj.length
    val dist = new Array[Int](n)
    val queue = new Array[Int](n)
    var total = 0L
    var pairs = 0L
    for (s <- 0 until n) {
      java.util.Arrays.fill(dist, -1)
      dist(s) = 0
      queue(0) = s
      var head = 0
      var tail = 1
      while (head < tail) {
        val u = queue(head); head += 1
        for (w <- adj(u) if dist(w) < 0) { dist(w) = dist(u) + 1; queue(tail) = w; tail += 1 }
        if (u != s) { total += dist(u); pairs += 1 }
      }
    }
    if (pairs == 0) Double.NaN else total.toDouble / pairs
  }
}
