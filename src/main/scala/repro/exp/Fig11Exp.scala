package repro.exp

import repro.baselines.{DualTrans, InvIdx}
import repro.data.SetGen

/** Fig. 11 — index size and construction time of LES³ (TGM, with L2P
  * training as its construction cost) vs DualTrans and InvIdx. The paper
  * reports the TGM needing up to 90% less space than either baseline.
  * `LES3(TGM)` is the paper's quantity, the compressed rows; the
  * `LES3(TGM+columns)` row adds the column view the in-memory engine keeps.
  */
object Fig11Exp {

  final case class Row(dataset: String, method: String, sizeBytes: Long, buildMs: Double)

  def run(profiles: Seq[SetGen.Profile] = Seq(SetGen.kosarakLite, SetGen.dblpLite),
          pairs: Int = 20000): Seq[Row] =
    profiles.flatMap { p =>
      val db = SetGen.local(p)
      val built = Harness.buildLes3(db, p.nTokens, Harness.defaultGroups(p.nSets), pairs)
      val les3Size = built.index.tgm.sizeBytes
      val (dual, dualMs) = Harness.timeMs(new DualTrans(db))
      val (inv, invMs) = Harness.timeMs(new InvIdx(db))
      Seq(
        Row(p.name, "LES3(TGM)", les3Size, built.partitionMs),
        Row(p.name, "LES3(TGM+columns)", les3Size + built.index.tgm.columnBytes, built.partitionMs),
        Row(p.name, "DualTrans", dual.sizeBytes, dualMs),
        Row(p.name, "InvIdx", inv.sizeBytes, invMs),
      )
    }

  def render(rows: Seq[Row]): String =
    Fmt.table("Fig 11: index size and construction time",
      Seq("dataset", "method", "index KB", "build ms"),
      rows.map(r => Seq(r.dataset, r.method, Fmt.kb(r.sizeBytes), Fmt.ms(r.buildMs))))
}
