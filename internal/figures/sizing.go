package figures

import (
	"tmbp/internal/model"
	"tmbp/internal/report"
)

// Sizing regenerates the back-of-envelope calculations of Sections 3.1 and
// 3.2: the ownership table sizes required to sustain given commit
// probabilities at the empirically observed STM hand-off point (W=71,
// α=2), across concurrencies. It also contrasts the independence (sum)
// form of the model with the saturating form, an ablation beyond the
// paper's own tables.
func Sizing(o Options) ([]*report.Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	const w = 71
	alpha := float64(o.Alpha)

	t := report.New("Table: ownership table sizing at the hybrid hand-off point (W=71, alpha=2)",
		"concurrency", "commit>=50%", "commit>=95%", "commit>=99%")
	for _, c := range []int{2, 4, 8} {
		row := []string{report.Int(c)}
		for _, p := range []float64{0.50, 0.95, 0.99} {
			n, err := model.TableSizeFor(p, w, alpha, c)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F1(n)+" entries")
		}
		t.Add(row...)
	}
	t.Note("paper anchors: >50,000 entries for 50%% commit at C=2; >500,000 for 95%%; >14 million at C=8")

	forms := report.New("Ablation: independence (sum) form vs saturating form of the model",
		"W", "sum form (Eq.4)", "saturating 1-exp", "divergence")
	for _, wi := range []int{5, 10, 20, 40, 71, 100} {
		p := model.Params{W: wi, Alpha: alpha, C: 2, N: 50410}
		sum := p.ClosedConflict()
		sat := p.SaturatingConflict()
		forms.Add(report.Int(wi), report.Pct(sum), report.Pct(sat), report.Pct(sum-sat))
	}
	forms.Note("the sum form overestimates (and exceeds 100%%) outside the small-probability region; the simulations trace the saturating curve")

	birthday := report.New("The birthday analogy",
		"quantity", "value")
	birthday.Add("people for >50% shared birthday (d=365)", report.Int(model.BirthdayThreshold(0.5, 365)))
	birthday.Add("P(collision | 23 people)", report.Pct(model.BirthdayCollisionProb(23, 365)))
	birthday.Add("blocks for >50% alias (N=1024 entries)", report.Int(model.BirthdayThreshold(0.5, 1024)))
	birthday.Add("blocks for >50% alias (N=64k entries)", report.Int(model.BirthdayThreshold(0.5, 65536)))
	birthday.Note("two addresses are likely to map to the same entry long before the table is full")

	return []*report.Table{t, forms, birthday}, nil
}
