package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.exp.{Instances, Sweep}
import repro.graphs.{LocalGraph, ProbModel}

/** Golden fixed-seed outputs of `Greedy.run` for the three estimators and of
  * the reference seed set. Refactors of the kernels, the RR-set store or the
  * greedy loop must leave every value here unchanged: a seed set, a
  * traversal cost or a sample size that moves means the PRNG draws or the
  * cost accounting changed.
  */
class GoldenSpec extends AnyFunSuite {

  private lazy val karate = Instances.influenceGraph(Instances.karate, ProbModel.uc01)
  private lazy val baD = Instances.influenceGraph(Instances.baD, ProbModel.IWC)

  private def graph(name: String): LocalGraph = if (name == "Karate") karate else baD

  /** (instance, algorithm, sample number) → (seed key, vertex cost,
    * edge cost, sample size) of `Greedy.run` at k = 4 and seed 20200614.
    */
  private val greedyGolden: Seq[((String, String, Int), (String, Long, Long, Long))] = Seq(
    ("Karate", "Oneshot", 16) -> ("2,7,18,31", 9629L, 56211L, 0L),
    ("Karate", "Snapshot", 16) -> ("0,1,32,33", 3068L, 1517L, 241L),
    ("Karate", "RIS", 1024) -> ("0,2,23,33", 1965L, 10984L, 1965L),
    ("BA_d", "Oneshot", 4) -> ("58,61,79,944", 931880L, 10429721L, 0L),
    ("BA_d", "Snapshot", 8) -> ("11,14,15,86", 213169L, 207195L, 7920L),
    ("BA_d", "RIS", 4096) -> ("12,14,15,18", 61275L, 1070410L, 61275L),
  )

  /** (instance, refTheta) → `Sweep.referenceSeedSet` key at k = 4, seed 777. */
  private val referenceGolden: Seq[((String, Long), String)] = Seq(
    ("Karate", 1L << 14) -> "0,1,32,33",
    ("BA_d", 1L << 15) -> "11,12,15,18",
  )

  private def estimator(alg: String, g: LocalGraph, s: Int): InfluenceEstimator = alg match {
    case "Oneshot" => new Oneshot(g, s)
    case "Snapshot" => new Snapshot(g, s)
    case "RIS" => new Ris(g, s)
  }

  for (((net, alg, s), expected) <- greedyGolden)
    test(s"golden Greedy.run: $net $alg s=$s k=4") {
      val g = graph(net)
      val r = Greedy.run(g.n, 4, estimator(alg, g, s), new SplittableRandom(20200614L))
      val got = (r.seedSetKey, r.vertexCost, r.edgeCost, r.sampleSize)
      println(s"[golden] ($net, $alg, $s) -> $got")
      assert(got == expected)
    }

  for (((net, refTheta), expected) <- referenceGolden)
    test(s"golden Sweep.referenceSeedSet: $net refTheta=$refTheta k=4") {
      val key = Sweep.referenceSeedSet(graph(net), 4, refTheta, 777L).mkString(",")
      println(s"[golden] ($net, $refTheta) -> $key")
      assert(key == expected)
    }
}
